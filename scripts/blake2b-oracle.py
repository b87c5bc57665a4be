#!/usr/bin/env python3
"""Writes the BLAKE2b-256 golden digests that crates/digest/tests/blake2b_golden.rs checks.

Every digest comes from CPython's hashlib.blake2b(digest_size=32), an
implementation this repository did not write. Only the standard library
is used, so no download is needed.

    scripts/blake2b-oracle.py        # rewrite crates/digest/tests/golden/blake2b256.txt
    scripts/blake2b-oracle.py -      # print the golden to stdout instead

Messages: deterministic byte strings of lengths 0-300, 1000, 4096 and
65537 (byte i of the length-n message is (251 * i + 17 * n + 1) mod 256),
plus three ASCII strings. The lengths 0-300 cross both the 128- and the
256-byte block boundary, where the last block is held back for the final
compression.
"""

import hashlib
import os
import platform
import sys

LENGTHS = list(range(301)) + [1000, 4096, 65537]
STRINGS = [
    "abc",
    "The quick brown fox jumps over the lazy dog",
    "malware-package-contents",
]
GOLDEN = os.path.join(
    os.path.dirname(os.path.abspath(__file__)),
    "..", "crates", "digest", "tests", "golden", "blake2b256.txt",
)


def message(n):
    return bytes((251 * i + 17 * n + 1) % 256 for i in range(n))


def digest(data):
    return hashlib.blake2b(data, digest_size=32).hexdigest()


def golden():
    lines = [
        "# BLAKE2b-256 golden digests: hashlib.blake2b(digest_size=32).",
        "# Written by scripts/blake2b-oracle.py; checked by crates/digest/tests/blake2b_golden.rs.",
        "# python %s" % platform.python_version(),
        "# bytes <n> <hex>: byte i of the message is (251 * i + 17 * n + 1) mod 256",
        "# ascii <hex> <text>: the text's ASCII bytes, to the end of the line",
    ]
    lines += ["bytes %d %s" % (n, digest(message(n))) for n in LENGTHS]
    lines += ["ascii %s %s" % (digest(s.encode("ascii")), s) for s in STRINGS]
    return "\n".join(lines) + "\n"


def main(argv):
    text = golden()
    if argv[1:] == ["-"]:
        sys.stdout.write(text)
    elif argv[1:]:
        sys.exit("usage: blake2b-oracle.py [-]")
    else:
        with open(GOLDEN, "w", encoding="ascii", newline="\n") as out:
            out.write(text)


if __name__ == "__main__":
    main(sys.argv)
