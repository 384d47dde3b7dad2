#!/usr/bin/env python3
"""Code-generation guard for the AVX2 GEMM tile.

Disassembles tileAvx2 (src/kernels/microkernel_avx2.cc) from the built
static library with objdump and fails when its k-loop stops being
register-resident or lands on the JCC-erratum layout:

 - the symbol is missing from an x86-64 build;
 - no loop of the function holds the FMAs;
 - the k-loop stores to memory or takes an FMA operand from memory
   (the 6x16 accumulators spilled to the stack);
 - the loop's back-branch, with a compare fused into it, crosses or
   ends on a 32-byte boundary, or the section holding the function is
   aligned to less than 32 bytes, so the layout the assembler padded
   (-Wa,-mbranches-within-32B-boundaries) does not survive linking.

Usage:
    check_tile_asm.py [build/src/libsplitcnn.a]

Exits 0 with a note on non-x86-64 builds, where the tile is a stub.
"""
import re
import subprocess
import sys

SYMBOL = "tileAvx2("
MEMBER = "microkernel_avx2.cc.o"
BOUNDARY = 32
# Instructions that macro-fuse with a following conditional jump.
FUSIBLE = ("cmp", "test", "add", "sub", "and", "inc", "dec")
# Prefixes objdump prints as words of their own before the mnemonic.
PREFIXES = ("cs", "ds", "data16", "rex", "rex.W", "notrack", "bnd")

INSN = re.compile(r"^\s*([0-9a-f]+):\s+(.*)$")
FUNC = re.compile(r"^([0-9a-f]+) <(.*)>:$")
SECTION = re.compile(r"^Disassembly of section (\S+):$")
JUMP_TARGET = re.compile(r"^j\w+\s+([0-9a-f]+)\b")


def objdump(*args):
    return subprocess.run(["objdump", *args], check=True,
                          capture_output=True, text=True).stdout


def member_lines(text):
    """The lines of the archive member holding the tile."""
    lines, inside = [], False
    for line in text.splitlines():
        if "file format" in line:
            inside = line.startswith(MEMBER + ":")
            continue
        if inside:
            lines.append(line)
    return lines


def section_alignment(lib, section):
    """Alignment in bytes of @p section in the tile's archive member."""
    inside = False
    for line in objdump("-h", lib).splitlines():
        if "file format" in line:
            inside = line.startswith(MEMBER + ":")
        elif inside:
            fields = line.split()
            if len(fields) >= 7 and fields[1] == section:
                return 2 ** int(fields[6].split("**")[1])
    return None


def tile_function(lines):
    """(section, [(addr, mnemonic, operands)]) of tileAvx2; section is
    None when the symbol is missing."""
    section, found, insns = None, None, []
    for line in lines:
        m = SECTION.match(line)
        if m:
            section = m.group(1)
            continue
        m = FUNC.match(line)
        if m:
            if found is not None:
                break
            if SYMBOL in m.group(2):
                found = section
            continue
        if found is None:
            continue
        m = INSN.match(line)
        if m:
            text = m.group(2).split("#")[0].strip()
            parts = text.split(None, 1)
            while len(parts) == 2 and parts[0] in PREFIXES:
                parts = parts[1].split(None, 1)
            insns.append((int(m.group(1), 16), parts[0] if parts else "",
                          parts[1] if len(parts) > 1 else ""))
    return found, insns


def is_store(mnemonic, operands):
    """True when the instruction writes memory (AT&T: destination last)."""
    if mnemonic.startswith(("push", "call")):
        return True
    if mnemonic.startswith(("cmp", "test", "j", "prefetch", "nop")):
        return False
    ops = operands.split(",")
    return "(" in ops[-1]


def main(argv):
    lib = argv[1] if len(argv) > 1 else "build/src/libsplitcnn.a"
    header = objdump("-f", lib)
    if "x86-64" not in header:
        print(f"ok: {lib} is not an x86-64 build; no AVX2 tile to check")
        return 0

    section, insns = tile_function(member_lines(objdump(
        "-d", "--no-show-raw-insn", "-C", lib)))
    if section is None or not insns:
        print(f"FAIL: tileAvx2 not found in {MEMBER} of {lib}")
        return 1

    # The k-loop: the backward branch whose body holds the FMAs.
    loop = None
    for i, (addr, mnem, ops) in enumerate(insns):
        m = JUMP_TARGET.match(f"{mnem} {ops}")
        if not mnem.startswith("j") or mnem == "jmp" or not m:
            continue
        target = int(m.group(1), 16)
        if target > addr:
            continue
        body = [x for x in insns if target <= x[0] <= addr]
        if any(x[1].startswith("vfmadd") for x in body):
            loop = (i, target, body)
    if loop is None:
        print("FAIL: no loop of tileAvx2 holds its FMAs")
        return 1
    branch, target, body = loop

    failures = []
    fmas = [x for x in body if x[1].startswith("vfmadd")]
    stores = [x for x in body if is_store(x[1], x[2])]
    mem_fmas = [x for x in fmas if "(" in x[2]]
    broadcasts = [x for x in body if x[1].startswith("vbroadcast")]
    for addr, mnem, ops in stores:
        failures.append(f"store in k-loop at {addr:#x}: {mnem} {ops}")
    for addr, mnem, ops in mem_fmas:
        failures.append(f"memory-operand FMA in k-loop at {addr:#x}: "
                        f"{mnem} {ops}")

    # Back-branch layout (JCC erratum): the jump, together with a
    # compare macro-fused into it, must sit inside one 32-byte chunk
    # and must not end on the chunk boundary.
    # The branch ends where the next instruction starts (a loop
    # branch is never the function's last instruction).
    start = insns[branch][0]
    if branch > 0 and insns[branch - 1][1].startswith(FUSIBLE):
        start = insns[branch - 1][0]
    end = insns[branch + 1][0]
    if start // BOUNDARY != (end - 1) // BOUNDARY or end % BOUNDARY == 0:
        failures.append(f"k-loop back-branch [{start:#x}, {end:#x}) "
                        f"crosses or ends on a {BOUNDARY}-byte boundary")
    align = section_alignment(lib, section)
    if align is None or align < BOUNDARY:
        failures.append(f"section {section} of {MEMBER} is aligned to "
                        f"{align} bytes, < {BOUNDARY}")

    print(f"tileAvx2 k-loop [{target:#x}, {end:#x}): {len(body)} "
          f"instructions, {len(fmas)} FMAs, {len(broadcasts)} broadcasts, "
          f"{len(stores)} stores; back-branch [{start:#x}, {end:#x})")
    for f in failures:
        print("FAIL: " + f)
    if not failures:
        print("ok: tileAvx2 k-loop is register-resident and its "
              "back-branch stays inside one 32-byte chunk")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
