#!/usr/bin/env python3
"""Sampling profiler for one command, built on ptrace and frame pointers.

    python3 tools/profile.py [--interval-ms 1] [--top 30] [--group REGEX] -- CMD [ARGS...]

Runs CMD as a child process and traces only that child (its main thread)
with PTRACE_SEIZE. Every interval it interrupts the child, reads `rip` and
`rbp`, and walks the saved-`rbp` chain through /proc/<pid>/mem. When CMD
exits, the addresses are symbolized with `addr2line -f -i -C` (inlined
frames included) and three tables are printed:

* self: the innermost function at `rip`, share of all samples;
* inclusive: every function anywhere on the stack, counted once per sample;
* per group: samples whose stack holds a function matching `--group`
  (default: the paper figures, `figNN_...`), by first match from the root.

The walk needs frame pointers, so build the target with

    RUSTFLAGS="-C force-frame-pointers=yes" CARGO_PROFILE_RELEASE_DEBUG=1 \\
        CARGO_TARGET_DIR=target-fp cargo build --release ...

Code without frame pointers (libm, libc) still shows at the leaf, but
the leaf's immediate caller is then missing from that sample's stack.
x86-64 Linux only; needs nothing beyond the Python standard library and
binutils' `addr2line`.
"""

import argparse
import collections
import ctypes
import os
import re
import signal
import struct
import subprocess
import sys
import time

PTRACE_CONT = 7
PTRACE_GETREGS = 12
PTRACE_SEIZE = 0x4206
PTRACE_INTERRUPT = 0x4207
PTRACE_EVENT_STOP = 128
MAX_DEPTH = 512

# struct user_regs_struct (x86-64): 27 unsigned longs.
REG_RBP, REG_RIP, REG_RSP = 4, 16, 19

libc = ctypes.CDLL(None, use_errno=True)
libc.ptrace.restype = ctypes.c_long
libc.ptrace.argtypes = [ctypes.c_long, ctypes.c_long, ctypes.c_void_p, ctypes.c_void_p]


def ptrace(req, pid, addr=0, data=0):
    if libc.ptrace(req, pid, ctypes.c_void_p(addr), ctypes.c_void_p(data)) == -1:
        err = ctypes.get_errno()
        raise OSError(err, os.strerror(err))


def spawn(cmd):
    """Forks CMD, seizes it before it execs, and returns its pid."""
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(w)
        os.read(r, 1)  # Wait until the parent has seized us.
        try:
            os.execvp(cmd[0], cmd)
        finally:
            os._exit(127)
    os.close(r)
    ptrace(PTRACE_SEIZE, pid)
    os.write(w, b"x")
    os.close(w)
    return pid


def read_regs(pid):
    """`(rip, rbp, rsp)` of the stopped child."""
    regs = (ctypes.c_ulong * 27)()
    ptrace(PTRACE_GETREGS, pid, 0, ctypes.addressof(regs))
    return regs[REG_RIP], regs[REG_RBP], regs[REG_RSP]


def walk(mem, rip, rbp, rsp):
    """Returns [rip, return addresses...] by following the saved-`rbp`
    chain up the stack."""
    stack = [rip]
    while len(stack) < MAX_DEPTH and rbp >= rsp and rbp % 8 == 0:
        try:
            frame = os.pread(mem, 16, rbp)
        except OSError:
            break
        if len(frame) < 16:
            break
        saved, ret = struct.unpack("<QQ", frame)
        if ret == 0:
            break
        stack.append(ret - 1)  # Inside the call instruction, not after it.
        if saved <= rbp:
            break
        rbp = saved
    return stack


def sample(pid, interval):
    """Samples the child until it exits; returns its stacks and the file
    mappings last read while it ran."""
    stacks, maps, mem = [], [], None
    try:
        while True:
            time.sleep(interval)
            try:
                ptrace(PTRACE_INTERRUPT, pid)
            except OSError:
                pass  # Already gone; waitpid reports how.
            while True:
                _, status = os.waitpid(pid, 0)
                if os.WIFEXITED(status) or os.WIFSIGNALED(status):
                    return stacks, maps
                if status >> 16 == PTRACE_EVENT_STOP:
                    try:
                        rip, rbp, rsp = read_regs(pid)
                        # An exec replaces the address space: re-read the
                        # mappings, and reopen the memory file with them.
                        if not any(lo <= rip < hi for lo, hi, *_ in maps):
                            maps = read_maps(pid)
                            if mem is not None:
                                os.close(mem)
                            mem = os.open(f"/proc/{pid}/mem", os.O_RDONLY)
                        stacks.append(walk(mem, rip, rbp, rsp))
                    except OSError:
                        pass
                    ptrace(PTRACE_CONT, pid)
                    break
                # A signal-delivery stop: pass the signal on and keep
                # waiting for the interrupt.
                ptrace(PTRACE_CONT, pid, 0, os.WSTOPSIG(status))
    finally:
        if mem is not None:
            os.close(mem)


def read_maps(pid):
    """File mappings: [(start, end, file offset, executable, path)]."""
    out = []
    with open(f"/proc/{pid}/maps") as f:
        for line in f:
            parts = line.split()
            if len(parts) >= 6 and parts[5].startswith("/"):
                lo, hi = (int(x, 16) for x in parts[0].split("-"))
                out.append((lo, hi, int(parts[2], 16), "x" in parts[1], parts[5]))
    return out


def load_bias(maps, path):
    """Run-time minus link-time address for `path`: 0 for a fixed-address
    executable, else the start of its offset-0 mapping."""
    with open(path, "rb") as f:
        e_type = struct.unpack("<H", f.read(18)[16:18])[0]
    if e_type == 2:  # ET_EXEC
        return 0
    return min((lo for lo, _, off, _, p in maps if p == path and off == 0), default=0)


def symbolize(addrs, maps):
    """Maps each address to its inlined function chain, innermost first."""
    by_path = collections.defaultdict(set)
    for a in addrs:
        for lo, hi, _, exe, path in maps:
            if exe and lo <= a < hi:
                by_path[path].add(a)
                break
    names = {}
    for path, group in by_path.items():
        bias = load_bias(maps, path)
        ordered = sorted(group)
        query = "".join(f"{a - bias:#x}\n" for a in ordered)
        out = subprocess.run(["addr2line", "-a", "-f", "-i", "-C", "-e", path],
                             input=query, capture_output=True, text=True).stdout
        base = os.path.basename(path)
        chains, cur = [], None
        lines = out.splitlines()
        i = 0
        while i < len(lines):
            if lines[i].startswith("0x"):
                cur = []
                chains.append(cur)
                i += 1
                continue
            fn = lines[i]
            cur.append(fn if fn != "??" else f"?? ({base})")
            i += 2  # Skip the file:line that follows each function.
        for a, chain in zip(ordered, chains):
            names[a] = chain or [f"?? ({base})"]
    return {a: names.get(a, ["?? (unmapped)"]) for a in addrs}


def table(title, counts, total, top):
    print(f"\n{title} ({total} samples)")
    for name, n in counts.most_common(top):
        print(f"{100.0 * n / total:6.1f}%  {n:7d}  {name}")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--interval-ms", type=float, default=1.0)
    p.add_argument("--top", type=int, default=30)
    p.add_argument("--group", default=r"\bfig\d\d_[a-z0-9_]+")
    p.add_argument("cmd", nargs=argparse.REMAINDER)
    args = p.parse_args()
    cmd = args.cmd[1:] if args.cmd[:1] == ["--"] else args.cmd
    if not cmd:
        p.error("no command given")
    pid = spawn(cmd)
    try:
        stacks, maps = sample(pid, args.interval_ms / 1000.0)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        raise
    if not stacks or not maps:
        sys.exit("no samples taken")
    # The child is gone: the mappings last read while it ran stand in
    # for the whole run.
    names = symbolize({a for s in stacks for a in s}, maps)
    total = len(stacks)
    own, incl, groups = collections.Counter(), collections.Counter(), collections.Counter()
    group_re = re.compile(args.group)
    for s in stacks:
        own[names[s[0]][0]] += 1
        chain = [fn for a in s for fn in names[a]]
        incl.update(set(chain))
        hit = next((m.group(0) for fn in reversed(chain) if (m := group_re.search(fn))), None)
        groups[hit or "(none)"] += 1
    table("self", own, total, args.top)
    table("inclusive", incl, total, args.top)
    table(f"per group /{args.group}/", groups, total, args.top)


if __name__ == "__main__":
    main()
