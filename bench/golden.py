"""Pinned inputs and command-line outputs of the two bundled examples.

The texts are the ones printed in the README and pinned by the test suite
(tests/conftest.py, tests/test_files_cli.py, tests/test_generators.py,
tests/test_algebra.py): the running Z/9 example and the dihedral example of
order 6.  They are compared byte for byte.
"""

Z9_GROUP = "9\n" + "".join(
    " ".join(str((a + b) % 9) for b in range(9)) + "\n" for a in range(9)
)
Z9_ROWS = (
    "111111111",
    "111101100",
    "111001000",
    "110000000",
    "100000000",
    "111000001",
    "110000000",
    "100000000",
    "100001000",
)
Z9_R = (0, 1, 2, 3, 4, 1, 2, 3, 3)
Z9_CHAIN = "1 2 3 4 5 6 7 8\n6 7\n"

# The golden table with f(4,4) flipped; the README gives the witness.
Z9_BROKEN_WITNESS = "error: identity violated at (1, 3, 4):"

D3_ROWS = ("111111", "110100", "100000", "111000", "100000", "110000")

# Expected (exit code, stdout) per request of the Z/9 block.
Z9_OUTPUTS = {
    "validate": (0, "valid\n"),
    "inertial": (0, "0\n"),
    "nk": (0, "N1=1,5,8\nN2=2,6\nN3=3,7\nN4=4\n"),
    "radical-powers": (0, "1 2 3 4 5 6 7 8\n2 3 4 6 7\n3 4 7\n4\nnilpotency=5\n"),
    "generators": (
        0,
        "1: (1)\n2: (1,1)\n3: (1,1,1)\n4: (5,8) (8,5) (1,1,1,1)\n5: (5)\n"
        "6: (1,5) (5,1)\n7: (1,1,5) (1,5,1) (5,1,1)\n8: (8)\n",
    ),
    "annihilators": (0, "trivial=\nnontrivial=4,7\n"),
    "chain-cocycle": (
        0,
        "111111111\n111100000\n111000000\n110000000\n100000000\n"
        "100000001\n100000000\n100000000\n100001000\n",
    ),
    "decompose-classes": (
        0,
        "rho=2 ideal=3,4,5,6,7,8 strict=true\n"
        "rho=3 ideal=4,5,6,7,8 strict=true\n"
        "rho=4 ideal=6,7 strict=true\n"
        "rho=6 ideal=2,3,4,7,8 strict=true\n"
        "rho=7 ideal=3,4,8 strict=true\n"
        "recombines=true\n",
    ),
    "identity-fI_eq_f": (0, "fI_eq_f ok=true\n"),
    "morphism": (
        0,
        "ok=true\nscaling_ok=true\nkernel=6,7\npsi_ok=true\ndims=9,7,2\nsection_ok=true\n",
    ),
    "lift-r": (
        0,
        "(0,0,0)\n(1,1,0)\n(2,2,0)\n(3,3,0)\n(4,4,0)\n"
        "(1,1,0)\n(2,0,0)\n(3,0,0)\n(3,3,0)\n",
    ),
    "pad-lift": (
        0,
        "(0,0,0,0)\n(1,1,1,0)\n(2,2,2,0)\n(3,3,3,0)\n(4,4,4,0)\n"
        "(1,1,1,0)\n(2,2,0,0)\n(3,3,0,0)\n(3,3,3,0)\ncertified=true\n",
    ),
    "search-r": (0, "0\n1\n2\n3\n4\n1\n2\n3\n3\n"),
    "census-3": (
        0,
        "n=3 bits=111100100 H=0 max_power=1 layers=2 classes=2\n"
        "n=3 bits=111100101 H=0 max_power=2 layers=1,1 classes=1\n"
        "n=3 bits=111110100 H=0 max_power=2 layers=1,1 classes=1\n"
        "n=3 bits=111111111 H=0,1,2 max_power=0 layers= classes=0\n",
    ),
    "census-cyclic2": (
        0,
        "n=2 bits=1110 H=0 max_power=1 layers=1 classes=1\n"
        "n=2 bits=1111 H=0,1 max_power=0 layers= classes=0\n",
    ),
}

# Fragments pinned for `decompose --by bstar --r golden.r`.
Z9_BSTAR_START = "gamma=(5,8) ideal=4,5,6,7,8\n"
Z9_BSTAR_LINE = "gamma=(1,1,1,1) ideal=1,2,3,4,6,7\n"
Z9_BSTAR_END = "recombines=true\n"

# Element-graph edges of the Z/9 example, as index pairs.
Z9_ELEMENT_EDGES = {
    (0, 1), (0, 5), (0, 8), (1, 2), (1, 6), (2, 3), (2, 7),
    (3, 4), (4, 5), (4, 8), (5, 6), (6, 7),
}

D3_OUTPUTS = {
    "generators": (0, "a: (a)\na2: (a,a)\nb: (b)\nab: (a,b) (b,a,a)\na2b: (b,a)\n"),
    "annihilators": (0, "trivial=\nnontrivial=4\n"),
    "graph-element": (
        0,
        'graph {\n  "e";\n  "a";\n  "a2";\n  "b";\n  "ab";\n  "a2b";\n'
        '  "e" -- "a";\n  "e" -- "b";\n  "a" -- "a2";\n  "a" -- "ab";\n'
        '  "a" -- "a2b";\n  "a2" -- "ab";\n  "b" -- "ab";\n  "b" -- "a2b";\n'
        '  "ab" -- "a2b";\n}\n',
    ),
    "graph-generator": (
        0,
        'graph {\n  "()";\n  "(a)";\n  "(b)";\n  "(a,a)";\n  "(a,b)";\n'
        '  "(b,a)";\n  "(b,a,a)";\n  "()" -- "(a)";\n  "()" -- "(b)";\n'
        '  "(a)" -- "(a,a)";\n  "(a)" -- "(a,b)";\n  "(a)" -- "(b,a)";\n'
        '  "(b)" -- "(a,b)";\n  "(b)" -- "(b,a)";\n  "(a,a)" -- "(b,a,a)";\n'
        '  "(b,a)" -- "(b,a,a)";\n}\n',
    ),
    "search-r-3": (1, "exhausted bound=3 nodes=24\n"),
}

# Census sizes: C4 and D3 as pinned by the test suite; C7, C8 and D4 from
# the exhaustive enumeration (ROADMAP.md quotes the first two).
CENSUS_COUNTS = {"C4": 14, "C7": 2084, "C8": 19034, "D3": 262, "D4": 21830}
