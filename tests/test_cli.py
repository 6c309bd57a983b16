import argparse
import os
import subprocess
import sys
from pathlib import Path

import pytest

import worked
from encmips import cli
from test_pipeline import GOLDEN_TRACE

ROOT = Path(__file__).resolve().parent.parent


def _write_inputs(tmp_path, source=None):
    prog = tmp_path / "prog.asm"
    prog.write_text(source if source is not None else worked.CORRECTED)
    data = tmp_path / "data.hex"
    data.write_text(worked.DATA_HEX)
    return prog, data


def _asm(tmp_path, capsys, source=None, extra=()):
    prog, data = _write_inputs(tmp_path, source)
    out = tmp_path / "prog.hex"
    code = cli.main(["asm", str(prog), "-o", str(out),
                     "--key", "4b4952415450414c", *extra])
    return code, out, data, capsys.readouterr()


def test_asm_writes_image_and_symbols(tmp_path, capsys):
    code, out, _, cap = _asm(tmp_path, capsys)
    assert code == 0
    assert cap.out == "Loop = 58\nExit = a0\ncrypt boundary = 7\n"
    lines = out.read_text().splitlines()
    assert len(lines) == 21
    assert lines[0] == "0000000020010068"
    assert lines[6] == "0000000070000001"
    assert lines[7] != f"{0x2001_0007:016x}"  # encrypted past the boundary


def test_asm_plain_nop(tmp_path, capsys):
    prog = tmp_path / "n.asm"
    prog.write_text("nop\n")
    out = tmp_path / "n.hex"
    assert cli.main(["asm", str(prog), "-o", str(out)]) == 0
    assert out.read_text() == "0000000000000000\n"


def test_asm_without_crypt_fails(tmp_path, capsys):
    prog = tmp_path / "p.asm"
    prog.write_text("nop\n")
    code = cli.main(["asm", str(prog), "--key", "4b4952415450414c"])
    assert code == 1
    assert "crypt" in capsys.readouterr().err


def test_asm_crypt_0_alone_fails(tmp_path, capsys):
    # crypt mode never turns on, so no image would run encrypted
    prog = tmp_path / "p.asm"
    prog.write_text("nop\ncrypt 0\naddi $r1, $r0, 5\n")
    code = cli.main(["asm", str(prog), "--key", "4b4952415450414c"])
    cap = capsys.readouterr()
    assert code == 1
    assert cap.out == ""
    assert cap.err == "error: no crypt instruction turns crypt mode on\n"
    assert not prog.with_suffix(".hex").exists()


def test_asm_crypt_toggle_runs_to_golden_trace(tmp_path, capsys):
    # crypt 1 ... crypt 0 with a plaintext tail, encrypted by asm --key alone
    programs = ROOT / "demos" / "programs"
    image = tmp_path / "toggle.hex"
    assert cli.main(["asm", str(programs / "crypt_toggle.asm"), "-o", str(image),
                     "--key", "4b4952415450414c"]) == 0
    assert capsys.readouterr().out == "Skip = 58\nOff = 70\ncrypt boundary = 6\n"
    assert cli.main(["run", str(image), "--dmem", str(programs / "sum_array_data.hex"),
                     "--dump-regs", "r7", "--trace"]) == 0
    cap = capsys.readouterr()
    assert cap.err.splitlines() == GOLDEN_TRACE
    assert cap.out.endswith("r7 = 0x00000007\n")


def test_asm_syntax_error_diagnostic(tmp_path, capsys):
    prog = tmp_path / "p.asm"
    prog.write_text("nop\nbogus $r1\n")
    assert cli.main(["asm", str(prog)]) == 1
    assert "line 2" in capsys.readouterr().err


def test_asm_long_number_is_one_line_error(tmp_path, capsys):
    # a literal longer than int() reads is a diagnostic, not a traceback
    prog = tmp_path / "p.asm"
    prog.write_text("nop\naddi $r1, $r0, " + "9" * 5000 + "\n")
    assert cli.main(["asm", str(prog)]) == 1
    cap = capsys.readouterr()
    assert cap.out == ""
    assert cap.err == "error: line 2: number too long to read (5000 characters)\n"


@pytest.mark.parametrize("name, output", [("p.hex", None), ("p.s", "./p.s"),
                                          ("p.s", "link.s")],
                         ids=["default-output", "output-option", "hard-link"])
def test_asm_never_writes_over_its_source(tmp_path, capsys, monkeypatch, name, output):
    # the default output is the source with .hex, so a .hex source is its
    # own output; ./p.s and a hard link name the source by other paths
    prog = tmp_path / name
    prog.write_text("nop\n")
    os.link(prog, tmp_path / "link.s")
    monkeypatch.chdir(tmp_path)
    argv = ["asm", str(prog)] + (["-o", output] if output else [])
    assert cli.main(argv) == 1
    cap = capsys.readouterr()
    shown = Path(output) if output else prog
    assert (cap.out, cap.err) == (
        "", f"error: output {shown} is the source file; name another with -o\n")
    assert prog.read_text() == "nop\n"


def test_run_worked_example(tmp_path, capsys):
    code, out, data, _ = _asm(tmp_path, capsys)
    assert code == 0
    code = cli.main(["run", str(out), "--dmem", str(data),
                     "--dump-regs", "r4", "--dump-mem", "56:64"])
    cap = capsys.readouterr()
    assert code == 0
    assert cap.out == ("cycles = 100\n"
                       "retired = 75\n"
                       "stalls = 14\n"
                       "flushes = 7\n"
                       "cpi = 1.3333\n"
                       "r4 = 0xcba767ee\n"
                       "38: 1875a64fa44f1439\n")


def test_run_dumps_in_the_order_given(tmp_path, capsys):
    # registers and ranges print in the order named; 0x40 was never written
    code, out, data, _ = _asm(tmp_path, capsys)
    assert cli.main(["run", str(out), "--dmem", str(data),
                     "--dump-regs", "r7,r2,r4", "--dump-mem", "48:72,0:8"]) == 0
    assert capsys.readouterr().out == ("cycles = 100\n"
                                       "retired = 75\n"
                                       "stalls = 14\n"
                                       "flushes = 7\n"
                                       "cpi = 1.3333\n"
                                       "r7 = 0x00000000\n"
                                       "r2 = 0x00000007\n"
                                       "r4 = 0xcba767ee\n"
                                       "30: 0000000065410188\n"
                                       "38: 1875a64fa44f1439\n"
                                       "40: 0000000000000000\n"
                                       "0: 0000000011111111\n")


def test_dump_regs_spellings():
    # an optional $, an optional r or R, then ASCII decimal digits
    assert cli._parse_reg_list("r4,$r4,R4,4, $R31 ,$7,r07") == [4, 4, 4, 4, 31, 7, 7]
    assert cli._parse_reg_list("r" + "0" * 5000 + "7") == [7]
    for bad in ("r0x4", "r-0", "r\u0664", "$", "r", "4r"):
        with pytest.raises(argparse.ArgumentTypeError, match="no such register"):
            cli._parse_reg_list(bad)


class _ClosingPipe:
    """Standard output whose reader goes away after `lines` lines."""

    def __init__(self, lines):
        self.lines = lines

    def write(self, text):
        if self.lines == 0:
            raise BrokenPipeError(32, "Broken pipe")
        self.lines -= text.count("\n")
        return len(text)

    def flush(self):
        pass


def test_run_dump_streams_its_lines(tmp_path, capsys, monkeypatch):
    # a dump of all 2^29 blocks ends at the first write the reader refuses:
    # 5 stats lines and 45 blocks, with no range built in memory first
    code, out, data, _ = _asm(tmp_path, capsys)
    pipe = _ClosingPipe(50)
    monkeypatch.setattr(sys, "stdout", pipe)
    code = cli.main(["run", str(out), "--dmem", str(data),
                     "--dump-mem", "0:0x100000000"])
    monkeypatch.undo()
    assert code == 1
    assert pipe.lines == 0
    assert capsys.readouterr().err == "error: [Errno 32] Broken pipe\n"


def test_run_is_deterministic(tmp_path, capsys):
    code, out, data, _ = _asm(tmp_path, capsys)
    argv = ["run", str(out), "--dmem", str(data),
            "--dump-regs", "r4,r7", "--dump-mem", "0:16,56:64"]
    cli.main(argv)
    first = capsys.readouterr().out
    cli.main(argv)
    second = capsys.readouterr().out
    assert first == second


def test_run_cycle_limit_exit_code(tmp_path, capsys):
    code, out, data, _ = _asm(tmp_path, capsys, source=worked.VERBATIM)
    code = cli.main(["run", str(out), "--dmem", str(data), "--max-cycles", "2000"])
    cap = capsys.readouterr()
    assert code == 3
    assert "cycles = 2000" in cap.out


def test_run_fault_exit_code(tmp_path, capsys):
    image = tmp_path / "bad.hex"
    image.write_text("00000000fc000000\n")  # unrecognized opcode
    code = cli.main(["run", str(image)])
    cap = capsys.readouterr()
    assert code == 2
    assert "fault" in cap.err
    assert "cycles" in cap.out
    # a store in crypt mode before the key is loaded: the refetch after
    # `crypt 1` needs the key first, so IF faults, not the store's MEM
    # (docs/isa.md, Faults)
    code, out, _, _ = _asm(tmp_path, capsys, source="crypt 1\nsw $r0, 0($r0)\n")
    assert code == 0
    code = cli.main(["run", str(out)])
    cap = capsys.readouterr()
    assert code == 2
    assert cap.err == ("error: fault at pc 0x8 (cycle 3): "
                       "decrypting fetch before key loaded\n")
    assert "cycles = 3" in cap.out


def test_run_empty_image(tmp_path, capsys):
    image = tmp_path / "empty.hex"
    image.write_text("")
    assert cli.main(["run", str(image)]) == 0
    cap = capsys.readouterr()
    assert "cycles = 4" in cap.out
    assert "retired = 0" in cap.out
    assert "cpi = n/a" in cap.out


def test_run_trace_goes_to_stderr(tmp_path, capsys):
    code, out, data, _ = _asm(tmp_path, capsys)
    argv = ["run", str(out), "--dmem", str(data), "--dump-regs", "4"]
    cli.main(argv)
    plain = capsys.readouterr()
    cli.main(argv + ["--trace"])
    traced = capsys.readouterr()
    assert traced.out == plain.out
    assert "IF:" in traced.err and "CRYPT_ON" in traced.err
    assert len(traced.err.splitlines()) == 100


def test_run_trace_matches_golden(tmp_path, capsys):
    # README's worked example, traced; the file is the trace byte for byte
    programs = ROOT / "demos" / "programs"
    image = tmp_path / "sum.hex"
    assert cli.main(["asm", str(programs / "sum_array.asm"), "-o", str(image),
                     "--key", "4b4952415450414c"]) == 0
    capsys.readouterr()
    assert cli.main(["run", str(image), "--dmem", str(programs / "sum_array_data.hex"),
                     "--dump-regs", "r4", "--dump-mem", "56:64", "--trace"]) == 0
    golden = (ROOT / "tests" / "golden" / "worked_trace.txt").read_text()
    assert capsys.readouterr().err == golden


def test_des_known_answer(capsys):
    assert cli.main(["des", "encrypt", "--key", "133457799BBCDFF1",
                     "--block", "0123456789ABCDEF"]) == 0
    assert capsys.readouterr().out == "85e813540f0ab405\n"
    assert cli.main(["des", "decrypt", "--key", "133457799bbcdff1",
                     "--block", "85e813540f0ab405"]) == 0
    assert capsys.readouterr().out == "0123456789abcdef\n"


def test_des_paper_block(capsys):
    assert cli.main(["des", "encrypt", "--key", "4b4952415450414c",
                     "--block", "00000000cb97f7ee"]) == 0
    assert capsys.readouterr().out == "10539160018d5ff7\n"


def test_des_malformed_hex(capsys):
    assert cli.main(["des", "encrypt", "--key", "123", "--block", "0" * 16]) == 1
    assert "expected 16 hex digits" in capsys.readouterr().err


def test_dump_disasm(tmp_path, capsys):
    image = tmp_path / "img.hex"
    image.write_text("0000000020010068\n@68\n000000005450414c\n")
    assert cli.main(["dump", str(image), "--disasm"]) == 0
    assert capsys.readouterr().out == (
        "0: 0000000020010068  addi $r1, $r0, 104\n"
        "68: 000000005450414c  .word 0x5450414c\n")


# (argv, a part of the error line or None)
@pytest.mark.parametrize("argv, reason", [
    (["run", "{missing}"], "argument image: [Errno 2] No such file or directory"),
    (["run", "{image}", "--dmem", "{missing}"],
     "argument --dmem: [Errno 2] No such file or directory"),
    (["asm", "{missing}"], None),
    (["dump", "{missing}"], "argument image: [Errno 2] No such file or directory"),
    (["run", "{bad_hex}"], "argument image: line 2: expected 16 hex digits, got 'zz'"),
    (["run", "{image}", "--dmem", "{bad_hex}"],
     "argument --dmem: line 2: expected 16 hex digits, got 'zz'"),
    (["run", "{image}", "--dmem", "{bad_directive}"],
     "argument --dmem: line 1: address directive '@6b' not 8-aligned"),
    (["run", "{signed_directive}"], "argument image: line 1: bad address directive '@-8'"),
    (["run", "{image}", "--max-cycles", "0"], "argument --max-cycles: must be >= 1"),
    (["run", "{image}", "--dump-mem", "3:9"], None),
    (["run", "{image}", "--dump-regs", "r40"], "--dump-regs: no such register r40"),
    # leading zeros are dropped before int() reads the digits, so the first
    # entry is r7 and the error names the second
    (["run", "{image}", "--dump-regs", "r" + "0" * 5000 + "7,r40"],
     "--dump-regs: no such register r40\n"),
    (["run", "{image}", "--dump-regs", "r" + "9" * 5000],
     "--dump-regs: no such register r" + "9" * 5000 + "\n"),
    (["run", "{image}", "--dump-regs", "rx"], "--dump-regs: no such register 'rx'"),
    (["run", "{image}", "--dump-regs", "r1_0"], "--dump-regs: no such register 'r1_0'"),
    (["run", "{image}", "--dump-regs", "r+4"], "--dump-regs: no such register 'r+4'"),
    (["run", "{image}", "--dump-regs", "$$r4"], "--dump-regs: no such register '$$r4'"),
    (["run", "{image}", "--max-cycles", "x"], "--max-cycles: expected an integer, got 'x'"),
    (["run", "{image}", "--dump-mem", "16:x"], "--dump-mem: expected an integer, got 'x'"),
    (["run", "{image}", "--max-cycles", "+1_00"],
     "--max-cycles: expected an integer, got '+1_00'"),
    (["run", "{image}", "--dump-mem", "\u0660:\u0661\u0666"],
     "--dump-mem: expected an integer, got '\u0660'"),
    (["run", "{image}", "--dump-mem", "16"], "--dump-mem: expected START:STOP, got '16'"),
    (["run", "{image}", "--dump-mem", "16:0"], "stop must be above start"),
    (["run", "{image}", "--dump-mem", "16:16"], "stop must be above start"),
    (["run", "{image}", "--dump-mem=-16:8"], "argument --dump-mem: start -0x10 is negative"),
    (["run", "{image}", "--dump-mem", "0:0x100000008"],
     "argument --dump-mem: stop 0x100000008 is past the 32-bit address space"),
    (["des", "encrypt", "--key=-b4952415450414c", "--block", "00000000cb97f7ee"],
     "expected 16 hex digits, got '-b4952415450414c'"),
    (["des", "decrypt", "--key", "4b4952415450_41c", "--block", "00000000cb97f7ee"],
     "expected 16 hex digits, got '4b4952415450_41c'"),
    (["des", "encrypt", "--key", "4b4952415450414c", "--block", "0x+0000000cb97f7ee"],
     "expected 16 hex digits, got '0x+0000000cb97f7ee'"),
    (["asm", "{source}", "--key=-b4952415450414c"],
     "expected 16 hex digits, got '-b4952415450414c'"),
    (["run"], "the following arguments are required: image"),
    (["run", "{image}", "--bogus"], "unrecognized arguments: --bogus"),
    (["frob"], "invalid choice: 'frob'"),
    (["des", "encrypt"], "the following arguments are required: --key, --block"),
    (["run", "{image}", "--max-cycles", "9" * 5000], "--max-cycles: expected an integer, "
     "got a number too long to read (5000 characters)"),
    (["run", "{image}", "--dump-mem", "0:" + "9" * 5000], "--dump-mem: expected an integer, "
     "got a number too long to read (5000 characters)"),
], ids=["run-missing-image", "run-missing-dmem", "asm-missing-source",
        "dump-missing-image", "run-bad-hex-line", "run-dmem-bad-hex-line",
        "run-dmem-unaligned-directive", "run-signed-address-directive",
        "run-max-cycles-0", "run-unaligned-dump-mem", "run-no-such-register",
        "run-register-leading-zeros", "run-register-too-long",
        "run-register-not-a-number", "run-register-underscore",
        "run-register-signed", "run-register-two-dollars", "run-max-cycles-not-a-number",
        "run-dump-mem-not-a-number", "run-max-cycles-underscore",
        "run-dump-mem-non-ascii-digits", "run-dump-mem-no-colon",
        "run-dump-mem-stop-before-start", "run-dump-mem-empty-range",
        "run-dump-mem-negative-start", "run-dump-mem-past-32-bits", "des-signed-key",
        "des-underscore-key", "des-signed-block-after-0x", "asm-signed-key",
        "run-no-image", "run-unknown-option", "unknown-command", "des-no-key-or-block",
        "run-max-cycles-too-long", "run-dump-mem-too-long"])
def test_bad_input_is_one_line_error(tmp_path, capsys, argv, reason):
    paths = {"missing": tmp_path / "missing.hex", "image": tmp_path / "image.hex",
             "bad_hex": tmp_path / "bad.hex", "bad_directive": tmp_path / "bad_dir.hex",
             "signed_directive": tmp_path / "signed_dir.hex",
             "source": tmp_path / "prog.asm"}
    paths["image"].write_text("0000000020010068\n")
    paths["bad_hex"].write_text("0000000020010068\nzz\n")
    paths["bad_directive"].write_text("@6b\n0000000000000000\n")
    paths["signed_directive"].write_text("@-8\n0000000000000000\n")
    paths["source"].write_text("crypt 1\n")
    code = cli.main([arg.format(**paths) for arg in argv])
    cap = capsys.readouterr()
    assert code == 1
    assert cap.out == ""
    assert cap.err.startswith("error: ") and cap.err.count("\n") == 1
    if reason is not None:
        assert reason in cap.err


@pytest.mark.parametrize("argv", [["-h"], ["run", "-h"], ["asm", "-h"]])
def test_help_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exit_info:
        cli.main(argv)
    assert exit_info.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: ")
    if argv[0] == "asm":
        # --key states where encryption ends (docs/isa.md, Encrypted images)
        assert "crypt 0" in " ".join(out.split())


def test_cli_import_loads_no_dataclasses_typing_or_inspect():
    # -S skips the site module, which may load typing itself on some installs
    code = ("import sys, encmips.cli; "
            "print(sorted({'dataclasses', 'typing', 'inspect'} & set(sys.modules)))")
    result = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                            text=True, check=True,
                            env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert result.stdout == "[]\n"
