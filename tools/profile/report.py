#!/usr/bin/env python3
"""Symbolise a sampler.c profile and print where the samples went.

    python3 report.py <profile.out> [rows=30]
    FOCUS=<substring> python3 report.py <profile.out>
    ROOT=<substring> python3 report.py <profile.out>

Every address is mapped through the process maps the profile carries and
the program headers of its file (`readelf -lW`), then symbolised with
`addr2line -f -C -i`, so an inlined function counts as a frame of its own
(a function inlined into its caller still gets its row). Return addresses
are looked up one byte back, at the call. Prints:

* self: samples whose innermost frame is the function;
* inclusive: samples with the function anywhere on the stack (once per
  sample, however deep the recursion);
* by layer: the samples each `mccs*` crate owns (the innermost frame
  naming one; library frames count for the crate that called them), and
  the samples with a B-tree, hash-map or allocator frame on the stack,
  each with the crate functions that called into it;
* with FOCUS set, the functions the outermost frame whose name contains
  FOCUS called, as shares of that frame's inclusive samples ("(self)"
  when it was the innermost frame).

With ROOT set, only samples with a frame whose name contains ROOT count,
and only that frame and what it called: every share is of the time under
it (e.g. ROOT=mccsbench::run::drive leaves out the set-up and the digest
taken after the timed loop).

An address outside every mapped file prints as "[0x...]".

Needs only python3 and binutils.
"""

import collections
import os
import re
import subprocess
import sys


def parse(path):
    maps, samples, section = [], [], None
    with open(path) as f:
        for line in f:
            line = line.rstrip("\n")
            if line.startswith("# "):
                section = line[2:]
            elif section == "maps":
                parts = line.split(None, 5)
                if len(parts) == 6 and "x" in parts[1] and parts[5].startswith("/"):
                    lo, hi = (int(x, 16) for x in parts[0].split("-"))
                    maps.append((lo, hi, int(parts[2], 16), parts[5]))
            elif section == "samples" and line:
                samples.append([int(x, 16) for x in line.split()])
    return maps, samples


def load_segments(path):
    """(file offset, vaddr, file size) of each LOAD segment of an ELF file."""
    out = subprocess.run(["readelf", "-lW", path], capture_output=True, text=True).stdout
    segs = []
    for line in out.splitlines():
        parts = line.split()
        if parts and parts[0] == "LOAD":
            segs.append((int(parts[1], 16), int(parts[2], 16), int(parts[4], 16)))
    return segs


def locate(addr, maps, segments):
    """(file, address as the file's own vaddr) for a runtime address."""
    for lo, hi, off, path in maps:
        if lo <= addr < hi:
            file_off = addr - lo + off
            if path not in segments:
                segments[path] = load_segments(path)
            for seg_off, seg_vaddr, seg_size in segments[path]:
                if seg_off <= file_off < seg_off + seg_size:
                    return path, file_off - seg_off + seg_vaddr
            return path, file_off
    return None, addr


def symbolise(addrs_by_file):
    """(file, addr) -> [function names, innermost inline first]."""
    names = {}
    for path, addrs in addrs_by_file.items():
        if path is None:
            continue
        out = subprocess.run(
            ["addr2line", "-e", path, "-f", "-C", "-i", "-a"],
            input="".join("%x\n" % a for a in sorted(addrs)), capture_output=True, text=True,
        ).stdout.splitlines()
        # Records: "0x<addr>" then (function, file:line) pairs.
        current, i = None, 0
        while i < len(out):
            line = out[i]
            if line.startswith("0x"):
                current = int(line, 16)
                names[(path, current)] = []
                i += 1
                continue
            fn = line
            if fn == "??":
                fn = "[%s+%#x]" % (os.path.basename(path), current)
            elif ".so" in os.path.basename(path):
                # No debug info: the nearest exported symbol, a guess.
                fn = "%s? [%s]" % (fn, os.path.basename(path))
            names[(path, current)].append(fn)
            i += 2
    return names


# Container families of the by-layer table: a sample counts for a family
# when any frame of its stack matches.
FAMILIES = [
    ("B-tree", re.compile(r"alloc::collections::btree")),
    ("hash", re.compile(r"hashbrown|core::hash::sip|std::collections::hash|SipHasher|RandomState")),
    ("allocator", re.compile(
        r"\bmalloc\b|\bfree\b|realloc|calloc|__rust_alloc|__rust_dealloc|__rust_realloc"
        r"|alloc::alloc::|_int_malloc|_int_free|morecore|mccsbench::alloc")),
]
CRATE = re.compile(r"\b(mccs\w*)::")


def crate_of(frames):
    """The innermost crate frame's crate, or None (frames innermost first)."""
    for f in frames:
        m = CRATE.search(f)
        if m:
            return m.group(1), f
    return None, None


def layers(stacks, denom, rows):
    """Print the by-layer tables for `stacks` (frame lists, innermost first)."""
    crates, families, callers = collections.Counter(), collections.Counter(), {}
    for fs in stacks:
        crates[crate_of(fs)[0] or "(no crate frame)"] += 1
        for name, pat in FAMILIES:
            # The outermost matching frame: its caller entered the family.
            hit = max((i for i, f in enumerate(fs) if pat.search(f)), default=None)
            if hit is not None:
                families[name] += 1
                caller = crate_of(fs[hit + 1:])[1] or "(none)"
                callers.setdefault(name, collections.Counter())[caller] += 1
    print("by crate (%d samples; innermost crate frame)" % denom)
    print("%8s %7s  %s" % ("samples", "share", "crate"))
    for c, n in crates.most_common():
        print("%8d %6.1f%%  %s" % (n, 100.0 * n / denom, c))
    print()
    print("by container family (%d samples; any frame on the stack)" % denom)
    print("%8s %7s  %s" % ("samples", "share", "family / called from"))
    for name, _ in FAMILIES:
        n = families[name]
        print("%8d %6.1f%%  %s" % (n, 100.0 * n / denom, name))
        for fn, m in callers.get(name, collections.Counter()).most_common(min(rows, 8)):
            print("%8d %6.1f%%      %s" % (m, 100.0 * m / denom, fn))
    print()


def main():
    if len(sys.argv) < 2:
        sys.exit(__doc__)
    rows = int(sys.argv[2]) if len(sys.argv) > 2 else 30
    maps, samples = parse(sys.argv[1])
    if not samples:
        sys.exit("no samples in %s" % sys.argv[1])
    segments, by_file, where = {}, collections.defaultdict(set), {}
    for stack in samples:
        for depth, addr in enumerate(stack):
            key = (addr, depth > 0)
            if key not in where:
                path, vaddr = locate(addr - (1 if depth > 0 else 0), maps, segments)
                where[key] = (path, vaddr)
                by_file[path].add(vaddr)
    names = symbolise(by_file)

    def frames(stack):
        out = []
        for depth, addr in enumerate(stack):
            path, vaddr = where[(addr, depth > 0)]
            out.extend(names.get((path, vaddr), ["[%#x]" % addr]))
        return out

    root = os.environ.get("ROOT")
    stacks = []
    for stack in samples:
        fs = frames(stack)
        if root:
            # Keep the outermost frame naming ROOT and what it called.
            hit = next((i for i in range(len(fs) - 1, -1, -1) if root in fs[i]), None)
            if hit is None:
                continue
            fs = fs[:hit + 1]
        stacks.append(fs)
    if not stacks:
        sys.exit("ROOT=%s matched no frame" % root)
    total = len(stacks)
    if root:
        print("ROOT=%s: %d of %d samples\n" % (root, total, len(samples)))
    self_count, incl_count = collections.Counter(), collections.Counter()
    focus = os.environ.get("FOCUS")
    callees, focus_total = collections.Counter(), 0
    for fs in stacks:
        self_count[fs[0]] += 1
        incl_count.update(set(fs))
        if focus:
            outer = fs[::-1]
            hit = next((i for i, f in enumerate(outer) if focus in f), None)
            if hit is not None:
                focus_total += 1
                callees[outer[hit + 1] if hit + 1 < len(outer) else "(self)"] += 1

    def table(title, counter, denom):
        print("%s (%d samples)" % (title, denom))
        print("%8s %7s  %s" % ("samples", "share", "function"))
        for fn, n in counter.most_common(rows):
            print("%8d %6.1f%%  %s" % (n, 100.0 * n / denom, fn))
        print()

    table("self", self_count, total)
    table("inclusive", incl_count, total)
    layers(stacks, total, rows)
    if focus:
        if focus_total == 0:
            print("FOCUS=%s matched no frame" % focus)
        else:
            table("callees of %s" % focus, callees, focus_total)


if __name__ == "__main__":
    main()
