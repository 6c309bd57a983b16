import random

from encmips import des

CLASSIC_KEY = 0x133457799BBCDFF1
CLASSIC_PT = 0x0123456789ABCDEF
CLASSIC_CT = 0x85E813540F0AB405

PAPER_KEY = 0x4B4952415450414C  # "KIRATPAL"

# published known-answer vectors (NIST SP 800-17 appendix tables)
NIST_VECTORS = [
    (0x0101010101010101, 0x8000000000000000, 0x95F8A5E5DD31D900),
    (0x0101010101010101, 0x4000000000000000, 0xDD7F121CA5015619),
    (0x0101010101010101, 0x0000000000000001, 0x166B40B44ABA4BD6),
    (0x8001010101010101, 0x0000000000000000, 0x95A8D72813DAA94D),
    (0x1001010101010101, 0x0000000000000000, 0xD3746294CA6A6CF3),
    (0x10316E028C8F3B4A, 0x0000000000000000, 0x82DCBAFBDEAB6602),
]


def _oracle_encrypt(key: int, block: int) -> int:
    """Independent implementation: 3DES with three equal keys is single DES."""
    from cryptography.hazmat.decrepit.ciphers.algorithms import TripleDES
    from cryptography.hazmat.primitives.ciphers import Cipher, modes

    enc = Cipher(TripleDES(key.to_bytes(8, "big") * 3), modes.ECB()).encryptor()
    return int.from_bytes(enc.update(block.to_bytes(8, "big")), "big")


def test_classic_walkthrough_vector():
    sched = des.key_schedule(CLASSIC_KEY)
    assert des.encrypt_block(CLASSIC_PT, sched) == CLASSIC_CT
    assert des.decrypt_block(CLASSIC_CT, sched) == CLASSIC_PT


def test_classic_walkthrough_internals():
    # first/last subkeys and, after one round of the cipher, the halves
    # R1 || L1 of the standard worked example
    sched = des.key_schedule(CLASSIC_KEY)
    assert sched[0] == 0x1B02EFFC7072
    assert sched[15] == 0xCB3D8B0E17F5
    assert _permute(des._IP, des._cipher(CLASSIC_PT, sched[:1]), 64) == 0xEF4A6544F0AAF0AA


def test_key_schedule_shape():
    sched = des.key_schedule(CLASSIC_KEY)
    assert len(sched) == 16
    assert all(0 <= k < (1 << 48) for k in sched)


def test_degenerate_keys_give_constant_schedules():
    # all-zero / all-one 28-bit halves are rotation invariant
    for key in (0x0000000000000000, 0xFFFFFFFFFFFFFFFF):
        sched = des.key_schedule(key)
        assert len(set(sched)) == 1


def test_nist_vectors():
    for key, pt, ct in NIST_VECTORS:
        sched = des.key_schedule(key)
        assert des.encrypt_block(pt, sched) == ct
        assert des.decrypt_block(ct, sched) == pt


def test_rivest_iterative_chain():
    # alternating self-keyed encrypt/decrypt, 16 steps; catches any
    # single-bit table fault
    x = 0x9474B8E8C73BCA7D
    for i in range(16):
        sched = des.key_schedule(x)
        x = des.encrypt_block(x, sched) if i % 2 == 0 else des.decrypt_block(x, sched)
    assert x == 0x1B1A2DDB4C642438


def test_paper_ciphertext():
    # the published triple: the printed input value, low-half padded
    sched = des.key_schedule(PAPER_KEY)
    assert des.encrypt_block(des.pad_word(0xCB97F7EE), sched) == 0x10539160018D5FF7
    assert des.decrypt_block(0x10539160018D5FF7, sched) == des.pad_word(0xCB97F7EE)


def test_round_trip_random():
    rng = random.Random(2024)
    for _ in range(500):
        key, block = rng.getrandbits(64), rng.getrandbits(64)
        sched = des.key_schedule(key)
        assert des.decrypt_block(des.encrypt_block(block, sched), sched) == block


def test_matches_independent_implementation():
    rng = random.Random(7)
    for _ in range(200):
        key, block = rng.getrandbits(64), rng.getrandbits(64)
        assert des.encrypt_block(block, des.key_schedule(key)) == _oracle_encrypt(key, block)


def test_complementation_property():
    rng = random.Random(11)
    full = 0xFFFFFFFFFFFFFFFF
    for _ in range(200):
        key, block = rng.getrandbits(64), rng.getrandbits(64)
        a = des.encrypt_block(block, des.key_schedule(key))
        b = des.encrypt_block(block ^ full, des.key_schedule(key ^ full))
        assert b == a ^ full


def test_parity_bits_ignored():
    rng = random.Random(13)
    for _ in range(200):
        key = rng.getrandbits(64)
        flip = 1 << (8 * rng.randrange(8))  # LSB of each byte is parity
        assert des.key_schedule(key) == des.key_schedule(key ^ flip)


def test_avalanche():
    rng = random.Random(17)
    total = 0
    samples = 200
    for _ in range(samples):
        key, block = rng.getrandbits(64), rng.getrandbits(64)
        sched = des.key_schedule(key)
        flipped = block ^ (1 << rng.randrange(64))
        diff = des.encrypt_block(block, sched) ^ des.encrypt_block(flipped, sched)
        total += bin(diff).count("1")
    assert 20 <= total / samples <= 44


def test_pad_word_low_half():
    assert des.pad_word(0xCBA767EE) == 0x00000000CBA767EE
    assert des.extract_word(0x123456789ABCDEF0) == 0x9ABCDEF0
    assert des.extract_word(des.pad_word(0xDEADBEEF)) == 0xDEADBEEF


def _oracle_decrypt(key: int, block: int) -> int:
    from cryptography.hazmat.decrepit.ciphers.algorithms import TripleDES
    from cryptography.hazmat.primitives.ciphers import Cipher, modes

    dec = Cipher(TripleDES(key.to_bytes(8, "big") * 3), modes.ECB()).decryptor()
    return int.from_bytes(dec.update(block.to_bytes(8, "big")), "big")


def _permute(table, value: int, width: int) -> int:
    """Reference bit permutation: output bit k is input bit table[k] (1-based, MSB first)."""
    out = 0
    for pos in table:
        out = (out << 1) | ((value >> (width - pos)) & 1)
    return out


def test_decrypt_matches_independent_implementation():
    rng = random.Random(23)
    for _ in range(200):
        key, block = rng.getrandbits(64), rng.getrandbits(64)
        assert des.decrypt_block(block, des.key_schedule(key)) == _oracle_decrypt(key, block)


def test_paired_sp_tables_match_sboxes_and_p():
    def sbox(i, v):
        return des._SBOXES[i][(((v >> 4) & 0x2) | (v & 0x1)) * 16 + ((v >> 1) & 0xF)]

    tables = (des._SP01, des._SP23, des._SP45, des._SP67)
    for pair, table in enumerate(tables):
        i = 2 * pair
        assert len(table) == 4096
        for v in range(4096):
            # S_i and S_i+1 outputs side by side at nibbles i and i+1, then
            # P, then E: the rounds keep both halves expanded
            nibbles = sbox(i, v >> 6) << (28 - 4 * i) | sbox(i + 1, v & 0x3F) << (24 - 4 * i)
            assert table[v] == _permute(des._E, _permute(des._P, nibbles, 32), 32)


def _expanded_halves(block: int) -> tuple:
    """(E(L), E(R)) of a 64-bit block, by the reference bit permutation."""
    return (_permute(des._E, block >> 32, 32), _permute(des._E, block & 0xFFFFFFFF, 32))


def _table_blocks(seed: int) -> list:
    # every block with one nonzero byte, so every entry of a per-byte
    # table, the 64 single-bit blocks among them; then 1,000 seeded blocks
    rng = random.Random(seed)
    return ([v << shift for shift in range(0, 64, 8) for v in range(1, 256)]
            + [rng.getrandbits(64) for _ in range(1000)])


def test_prologue_tables_give_the_expanded_halves_of_ip():
    for block in _table_blocks(31):
        x = 0
        for chunk, table in enumerate(des._IPE):
            x |= table[(block >> (56 - 8 * chunk)) & 0xFF]
        assert (x >> 48, x & 0xFFFFFFFFFFFF) == \
            _expanded_halves(_permute(des._IP, block, 64))


def test_epilogue_tables_undo_the_expansion_and_apply_fp():
    # the epilogue reads R16 || L16 from its expanded halves, 12 bits a byte:
    # the middle 4 bits of each 6-bit group
    assert des._SQUEEZE == [(v >> 3) & 0xF0 | (v >> 1) & 0xF for v in range(4096)]
    for block in _table_blocks(37):
        right, left = _expanded_halves(block)
        x = 0
        for chunk, table in enumerate(des._FPB):
            half = right if chunk < 4 else left
            x |= table[des._SQUEEZE[(half >> (36 - 12 * (chunk % 4))) & 0xFFF]]
        assert x == _permute(des._FP, block, 64)


def test_cipher_with_no_rounds_is_fp_of_the_swapped_ip():
    for block in _table_blocks(41):
        x = _permute(des._IP, block, 64)
        swapped = (x & 0xFFFFFFFF) << 32 | x >> 32
        assert des._cipher(block, ()) == _permute(des._FP, swapped, 64)


def test_cipher_matches_the_block_functions():
    # 50 keys taken in turn, 25 blocks each: more keys than the LRU keeps,
    # and each block asked in both directions, first and again from the memo
    rng = random.Random(29)
    keys = [PAPER_KEY] + [rng.getrandbits(64) for _ in range(49)]
    cases = [(PAPER_KEY, des.pad_word(0xCB97F7EE))]
    cases += [(keys[i % 50], rng.getrandbits(64)) for i in range(1249)]
    for key, block in cases:
        sched, c = des.key_schedule(key), des.cipher(key)
        for _ in range(2):
            assert c.encrypt(block) == des.encrypt_block(block, sched)
            assert c.decrypt(block) == des.decrypt_block(block, sched)
    assert des.cipher(PAPER_KEY).encrypt(des.pad_word(0xCB97F7EE)) == 0x10539160018D5FF7
    assert des.cipher(PAPER_KEY).decrypt(0x10539160018D5FF7) == des.pad_word(0xCB97F7EE)


def test_cipher_serves_either_direction_from_the_other(monkeypatch):
    des.cipher.cache_clear()
    c = des.cipher(CLASSIC_KEY)
    ct = c.encrypt(CLASSIC_PT)
    pt = c.decrypt(CLASSIC_CT ^ 1)

    def no_rounds(*args):
        raise AssertionError("a kept pair ran DES again")

    monkeypatch.setattr(des, "encrypt_block", no_rounds)
    monkeypatch.setattr(des, "decrypt_block", no_rounds)
    assert c.decrypt(ct) == CLASSIC_PT
    assert c.encrypt(pt) == CLASSIC_CT ^ 1
    assert ct == CLASSIC_CT


def test_two_keys_never_serve_each_others_pairs():
    other = CLASSIC_KEY ^ (1 << 60)
    des.cipher.cache_clear()
    ct = des.cipher(CLASSIC_KEY).encrypt(CLASSIC_PT)
    c = des.cipher(other)
    assert c is not des.cipher(CLASSIC_KEY)
    assert c.decrypt(ct) == des.decrypt_block(ct, des.key_schedule(other)) != CLASSIC_PT
    assert c.encrypt(CLASSIC_PT) == des.encrypt_block(CLASSIC_PT, des.key_schedule(other)) != ct


def test_cipher_bounds():
    des.cipher.cache_clear()
    ciphers = [des.cipher(key) for key in range(des.CIPHERS + 3)]
    assert des.cipher.cache_info().currsize == des.CIPHERS
    assert des.cipher(des.CIPHERS + 2) is ciphers[-1]     # the newest is kept
    assert des.cipher(0) is not ciphers[0]                # the oldest was dropped

    c = des.cipher(CLASSIC_KEY)
    sched = des.key_schedule(CLASSIC_KEY)
    for block in range(des.PAIRS + 10):
        assert c.encrypt(block) == des.encrypt_block(block, sched)
        assert len(c._ct) == len(c._pt) <= des.PAIRS
    assert len(c._ct) == 10       # emptied when pair PAIRS + 1 came
    assert c.decrypt(c.encrypt(5)) == 5
