"""Byte-for-byte parity of the bulk width matching, the chain partition and the search.

The width and partition digests were recorded from the code before the
submask-lookup graph build and the dead marks of the greedy matching pass
(now ``chains.greedy_match``) went in; both changes must leave every
matching, and so every certificate and chain, exactly as it was.  The
(14, 8) partition digest was recorded before the passes of the partition
were regrouped into ``greedy_match`` calls; that partition has 3433
chains, one more than the middle level (see the strict xfail in
``test_chains.py``), and the digest pins the output as it is, not as it
should be.

A sound new cut of the search removes only infeasible subtrees, so the
search still meets the same first witness, while its node and prune counts
fall and cut-off searches may settle.  So the search has two digests.  The
values digest holds the value and witness of every search that was exact
when it was recorded, before the antichain cut of h went in; it must never
change.  The counts digest holds the status, bounds, node and prune counts
of every search, and the report digest every cell and the order of the
rows; both were re-recorded when the antichain cut and the construction
upper bound of the search went in, when a failed candidate was excluded
from its later siblings' subtrees, and when the whole orbit of a failed
candidate under the symmetries of the selection was; the counts digest
again when the chain bound skipped excluded nodes, and when each target
became one tree from the empty selection instead of one per pinned
lowest node.

The verify digests hold the exit code and output of ``boolcut verify``,
recorded before verify read the width off the file's own chains; they must
never change.

The help texts were recorded while the parser still read its defaults
from ``search`` and ``constructions``; they must never change.

The construct digests hold the exit code, the bytes of the ``--out`` file
and the summary of ``boolcut construct``, and the rejections the exact
stderr of ``boolcut verify`` on malformed cutset files, both recorded while
a cutset still held one ``NodeSet`` object per node and ``construct``
serialized it in one ``json.dumps`` call; they must never change.
"""

import hashlib
import json
import random

import pytest

from boolcut import (
    NodeSet,
    SearchBudget,
    TruncatedLattice,
    bounded_chain_partition,
    cutset_auto,
    cutset_bicolor,
    cutset_fourcolor,
    cutset_level,
    cutset_product,
    exact_min_per_level,
    exact_min_width,
    width,
)
from boolcut.cli import main
from boolcut.report import report_rows
from boolcut.search import DEFAULT_NODE_CAP

# The cutsets that the certify workload of the benchmark verifies.
CUTSETS = {
    "level(16,5)": lambda: cutset_level(16, 5),
    "bicolor(16,5)": lambda: cutset_bicolor(16, 5),
    "fourcolor(16,4)": lambda: cutset_fourcolor(16, 4),
    "product(16,4,8)": lambda: cutset_product(16, 4, 8),
    "auto(14,3,9)": lambda: cutset_auto(14, 3, 9),
}

WIDTH_DIGESTS = {
    "level(16,5)": "f787e73b339ae88615b2d96c07283d3dd6541500c3cf6dee748812ca0faa3fe9",
    "level(16,5) half": "efe044b9882881fc3a918c479c9ab8493cbd847288c35a04f63128fe4841da2b",
    "bicolor(16,5)": "78fa18be8750389c4b5b11f69af438a51113a3fcaeb4d663642ae1db395a7763",
    "bicolor(16,5) half": "64cf2b5a9cb7c0f42f253c3dd1dd5a5ecc8d10f3f38c1ea838cb965f79582c7f",
    "fourcolor(16,4)": "2fe24924657e5028a5477021ac4ae069de946b5fd075d121808d1660e36711e2",
    "fourcolor(16,4) half": "b7daca097b8dcfc74565a0f46d72a03eb5ab5fef55d144aec94749700cd1e131",
    "product(16,4,8)": "b20bc1e6611c7a09113453708494b52031420a9e3dd751fe089cb4476e208c2b",
    "product(16,4,8) half": "b9db406064794002517d7de843a5482415e458cb34a1b8ea4c9eee3beae8aa8d",
    "auto(14,3,9)": "48ecdc2231c081e5f0b475e12b9b66a5d23c8de8d9e53c87e7ddb981853516c9",
    "auto(14,3,9) half": "f6ed1ea6e9e5ce502ca38b85cf49ed967a38734abfdd71a72cac8416dd237449",
}

# `boolcut verify` on each cutset above, and on each with two nodes taken out
# (``without_two_nodes``): all five of those fail the cutset test, and three
# fail the chain certificate.
VERIFY_DIGESTS = {
    "level(16,5)": "21bee72ff582fd51b776500bf6649c0d62fd6dd18d184c769d4b69bee0067c7f",
    "level(16,5) minus 2": "0a9576623c68646f04185ff41cbea2e92c38dd0728853742a174d62f38fe7b59",
    "bicolor(16,5)": "a3a99bea2f13ab9e8aae0ef543fdc17755c06e10e65582e937e332e1f9515ad0",
    "bicolor(16,5) minus 2": "2299d0ff89fafe124cb789cd94274d4c974446ca0aa0ea1b812fb982d90a3893",
    "fourcolor(16,4)": "c7eb5b121688dbe1ce3e2b94e9b6f3ecaeb16108915e7f3848dd55fd6602782d",
    "fourcolor(16,4) minus 2": "6d57d67511b8052843c0b117467c98937608f5d03a389dc1bd479adc82dc7325",
    "product(16,4,8)": "4eb34cd80807432ca13a631ebbaaa9f55e7fd02fc14fc7f5381641f48f630280",
    "product(16,4,8) minus 2": "40d027bd97c8a491e098f9c6a89f4fc69c1775a963c2b8348eb2fc25d072d0a4",
    "auto(14,3,9)": "816015461bf56b46c053af864d78ed882c2544de2fd0f19e4d2a45b52274ff24",
    "auto(14,3,9) minus 2": "0b8054f9013488736bb098624ea382b7c38a2f0a697a5e9839d1dd3ccd1c5241",
}

# `boolcut construct --out` on each cutset that the certify workload builds,
# and `boolcut construct` to stdout for one small case.
CONSTRUCT_DIGESTS = {
    "level(16,5,5)": "3a84be78bc06a0e3608908f0e1229b6bdd0d88e58a5dd365d5adca4f50b57ee8",
    "bicolor(16,5,6)": "0e6f815b2984b59b19389e31940c63f4ed4d5ed0c68689a935a579eff48e71e6",
    "fourcolor(16,4,6)": "7a7f2fd1f1e41caa298690b895d65becb8da3241ae0a9d41cc43570b2c342aad",
    "product(16,4,8)": "a5c0785fb55233f89ff1a8f900252fedc4ca0c7fc3d5e9a25db71b3a118fb9b4",
    "auto(14,3,9)": "961a6abd884d3686bd25636593d26d8b062744e72a71bef436062535e703e761",
    "product(18,6,12)": "67c4ac7d8a2cada16da10d527e58aa340b7e7d84e962d36c4b053ea9e9a6952d",
    "auto(6,1,3) stdout": "f841a0869644f19433f8fcdbd1676aea7bb32dcde59717f8ce9748f0382ab2e5",
}

# `boolcut verify` on cutset files that break the rules of the README's
# "Cutset JSON": each overrides fields of {"format": 1, "n": 4, "m": 1, "l": 3}
# and exits 2 with this stderr.  The last three hold two faults each, and
# the error names the one that the file gives first, except that a node
# outside m..l is named only when every chain is well formed.
REJECTIONS = {
    "n not an integer": (
        {"n": 4.0, "chains": [[[1]]]},
        "error: cutset JSON n, m, l must be integers, got 4.0, 1, 3\n",
    ),
    "m a boolean": (
        {"m": True, "chains": [[[1]]]},
        "error: cutset JSON n, m, l must be integers, got 4, True, 3\n",
    ),
    "l a string": (
        {"l": "3", "chains": [[[1]]]},
        "error: cutset JSON n, m, l must be integers, got 4, 1, '3'\n",
    ),
    "node not a list": (
        {"chains": [[[1], 12]]}, "error: node must be a list of integers, got 12\n"
    ),
    "element not an integer": (
        {"chains": [[[1], [1, 2.0]]]},
        "error: node must be a list of integers, got [1, 2.0]\n",
    ),
    "element a boolean": (
        {"chains": [[[True]]]}, "error: node must be a list of integers, got [True]\n"
    ),
    "node not ascending": (
        {"chains": [[[1], [2, 1]]]},
        "error: node elements must be ascending without repeats, got [2, 1]\n",
    ),
    "node with a repeat": (
        {"chains": [[[1], [1, 1]]]},
        "error: node elements must be ascending without repeats, got [1, 1]\n",
    ),
    "element outside [n]": ({"chains": [[[5]]]}, "error: element 5 outside [4]\n"),
    "element zero": ({"chains": [[[0, 1]]]}, "error: element 0 outside [4]\n"),
    "empty chain": ({"chains": [[[1]], []]}, "error: chain must be nonempty\n"),
    "chain not saturated": (
        {"chains": [[[1], [1, 2, 3]]]},
        "error: chain not saturated ascending at {1} -> {1,2,3}\n",
    ),
    "chain not ascending": (
        {"chains": [[[1, 2], [1]]]},
        "error: chain not saturated ascending at {1,2} -> {1}\n",
    ),
    "chain skips an element": (
        {"chains": [[[1], [2, 3]]]},
        "error: chain not saturated ascending at {1} -> {2,3}\n",
    ),
    "node above l": (
        {"chains": [[[1, 2, 3, 4]]]},
        "error: node {1,2,3,4} at level 4 outside levels 1..3\n",
    ),
    "node below m": (
        {"chains": [[[], [1]]]}, "error: node {} at level 0 outside levels 1..3\n"
    ),
    "level fault, then a parse fault": (
        {"chains": [[[1, 2, 3, 4]], [[1], [2, 1]]]},
        "error: node elements must be ascending without repeats, got [2, 1]\n",
    ),
    "level fault, then a saturation fault": (
        {"chains": [[[1, 2, 3, 4]], [[1], [1, 2, 3]]]},
        "error: chain not saturated ascending at {1} -> {1,2,3}\n",
    ),
    "saturation fault, then a parse fault": (
        {"chains": [[[1], [1, 2, 3]], [[2, 2]]]},
        "error: chain not saturated ascending at {1} -> {1,2,3}\n",
    ),
}

# The help of the parser and of each command, 80 columns wide.
HELP_TEXTS = {
    "boolcut --help": """\
usage: boolcut [-h] {construct,verify,search,report,identities} ...

Cutsets of truncated Boolean lattices: build, verify, search, report.

positional arguments:
  {construct,verify,search,report,identities}
    construct           build a cutset and emit it as JSON
    verify              check a cutset JSON file and measure its width
    search              exact minimum width (h) or per-level bound (g)
    report              conjecture-comparison CSV over a parameter range
    identities          binomial identity check table as CSV

options:
  -h, --help            show this help message and exit
""",
    "boolcut construct --help": """\
usage: boolcut construct [-h] --n N --m M --l L
                         [--method {level,bicolor,fourcolor,product,auto}]
                         [--out OUT] [--max-lattice-nodes MAX_LATTICE_NODES]

options:
  -h, --help            show this help message and exit
  --n N
  --m M
  --l L
  --method {level,bicolor,fourcolor,product,auto}
  --out OUT             write the cutset JSON here (summary goes to stdout)
  --max-lattice-nodes MAX_LATTICE_NODES
                        the most nodes this command will enumerate (default
                        250000)
""",
    "boolcut verify --help": """\
usage: boolcut verify [-h] [--max-lattice-nodes MAX_LATTICE_NODES] input

positional arguments:
  input                 path to a cutset JSON file

options:
  -h, --help            show this help message and exit
  --max-lattice-nodes MAX_LATTICE_NODES
                        the most nodes this command will enumerate (default
                        250000)
""",
    "boolcut search --help": """\
usage: boolcut search [-h] --n N --m M --l L [--target {h,g}]
                      [--max-nodes MAX_NODES] [--time-limit TIME_LIMIT]
                      [--max-lattice-nodes MAX_LATTICE_NODES]

options:
  -h, --help            show this help message and exit
  --n N
  --m M
  --l L
  --target {h,g}
  --max-nodes MAX_NODES
                        search node budget per call (default 2000000)
  --time-limit TIME_LIMIT
                        wall-clock budget per call in seconds (default 120.0)
  --max-lattice-nodes MAX_LATTICE_NODES
                        the most nodes this command will enumerate (default
                        64)
""",
    "boolcut report --help": """\
usage: boolcut report [-h] --n-min N_MIN --n-max N_MAX [--m-min M_MIN]
                      [--m-max M_MAX] [--out OUT] [--max-nodes MAX_NODES]
                      [--time-limit TIME_LIMIT]
                      [--max-lattice-nodes MAX_LATTICE_NODES]

options:
  -h, --help            show this help message and exit
  --n-min N_MIN
  --n-max N_MAX
  --m-min M_MIN
  --m-max M_MAX
  --out OUT             CSV path (default stdout)
  --max-nodes MAX_NODES
                        search node budget per call (default 50000)
  --time-limit TIME_LIMIT
                        wall-clock budget per call in seconds (default 10.0)
  --max-lattice-nodes MAX_LATTICE_NODES
                        the most nodes this command will enumerate (default
                        64)
""",
    "boolcut identities --help": """\
usage: boolcut identities [-h] [--max-n MAX_N] [--max-m MAX_M] [--out OUT]

options:
  -h, --help     show this help message and exit
  --max-n MAX_N
  --max-m MAX_M
  --out OUT      CSV path (default stdout)
""",
}

# One digest per k over bounded_chain_partition(k, c) for c = 1..k+1.
PARTITION_DIGESTS = {
    0: "de3132b0660d0664c7c64bf3062ed48af77370bab34b0bd5067b183c6d0395b2",
    1: "e659e91db74de2b50376576d6d56071d1800776cc3a6b6eb0a662a40978d54b1",
    2: "fbcfe9b239651259382792146945c698074ddf06c6c07b98b9fcfeb7de05071f",
    3: "97ebe5784e61cdbaa3dee61581b9cf1635b0c35a312019d153ae75800969f772",
    4: "d8d61823f0ce07e6d06a02ed234226419e27ddeb377258c16ca70e254b9ae42c",
    5: "13737b0afdd739780fc2acab0a82244041cfb623de17a5d45bbf42efc3d61b8f",
    6: "03730621962b2097f17c50a22874462eab573cac4dc1a24e5a3abaaf1762148d",
    7: "5a3048359e1ebbdc8c4ffd622c716cdf652981e353ba3fdcdbaa18e976cbcf94",
    8: "288ceae8f0d263a6eb261490681ff9451e762c4c1b85d1f67af86ca5f946c9fc",
    9: "dbb506ace543a7adf5f34bc35ed866dde8a1cf4bf258842bdc6397de17b5b0d4",
    10: "0fdde23bd36c52d5162a5783ed0b731b67a63e3e5e65abf6d58a6dc03fda6e2f",
    11: "669a06f0a80de3da914089b450d5e84f388d5c3b49e9c7a52457e583a10abb4d",
    12: "7a8b2f4db62b9b91030b41adb941a44d8c8d42590d8041121ce77c6e6350e8a6",
}

# bounded_chain_partition(14, 8), where the wide pass of the partition fires.
PARTITION_14_8_DIGEST = "1db8fdf65f24447174bc2507cb7913b53de9fb7333d0b4e4a109658dfb79335e"

# Every h and g search of `report --n-min 3 --n-max 12`, at 5,000 nodes each:
# the value and witness of each search that was EXACT when the digest was
# recorded, that is all but these, which the budget cut off then.
CUT_OFF_AT_RECORDING = {
    (5, 1, 4, "h"), (6, 1, 4, "h"), (6, 1, 4, "g"), (6, 1, 5, "h"), (6, 1, 5, "g"),
    (6, 2, 4, "h"), (6, 2, 4, "g"),
}
SEARCH_VALUES_DIGEST = "33e72967380cebb74f59a15292b3a61526ab059c2c49479f5cd66b75ccf2f24c"

# The status, bounds and counts (nodes, prunes) of every search.
SEARCH_COUNTS_DIGEST = "32cf896ec9f1611fd79c78ad1dd80d3a92ddffc9737db7136dc133360dc33dab"

# Every row of `report --n-min 3 --n-max 12`, at 5,000 nodes per search.
REPORT_DIGEST = "5acad7bf0856f6673e7fd7881d77a846b6b68094a36328df89afb7be31b05f42"


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, separators=(",", ":")).encode()).hexdigest()


def width_digests(name):
    cut = CUTSETS[name]()
    masks = sorted(cut.node_masks())
    rng = random.Random(len(masks))
    half = [v for v in masks if rng.random() < 0.5]
    return {
        name: digest(width([NodeSet(v, cut.lat.n) for v in masks]).to_json()),
        f"{name} half": digest(width([NodeSet(v, cut.lat.n) for v in half]).to_json()),
    }


def without_two_nodes(data):
    """The cutset JSON without the middle node of its first and of its last chain.

    A chain is split around a node taken out of it, so a chain of three or
    more nodes leaves two pieces, one above the other.
    """
    chains = data["chains"]
    removed = {tuple(ch[len(ch) // 2]) for ch in (chains[0], chains[-1])}
    pieces = []
    for ch in chains:
        piece = []
        for node in ch + [None]:
            if node is None or tuple(node) in removed:
                if piece:
                    pieces.append(piece)
                piece = []
            else:
                piece.append(node)
    return {**data, "chains": pieces}


def verify_digests(name, tmp_path, capsys):
    data = CUTSETS[name]().to_json()
    digests = {}
    for key, doc in ((name, data), (f"{name} minus 2", without_two_nodes(data))):
        path = tmp_path / "cut.json"
        path.write_text(json.dumps(doc))
        code = main(["verify", str(path)])
        digests[key] = digest([code, capsys.readouterr().out])
    return digests


def construct_digest(name, tmp_path, capsys):
    """The digest of ``construct`` on the case ``name`` of ``CONSTRUCT_DIGESTS``."""
    spec, _, to_stdout = name.partition(" ")
    method, _, params = spec.rstrip(")").partition("(")
    n, m, l = params.split(",")
    argv = ["construct", "--n", n, "--m", m, "--l", l, "--method", method]
    if to_stdout:
        code = main(argv)
        out = capsys.readouterr()
        return digest([code, hashlib.sha256(out.out.encode()).hexdigest(), out.err])
    path = tmp_path / "cut.json"
    code = main([*argv, "--out", str(path)])
    out = capsys.readouterr()
    return digest([code, hashlib.sha256(path.read_bytes()).hexdigest(), out.out, out.err])


def partition_digest(k):
    return digest([bounded_chain_partition(k, c).to_json() for c in range(1, k + 2)])


@pytest.mark.parametrize("name", list(CUTSETS))
def test_width_is_byte_identical(name):
    got = width_digests(name)
    assert got == {key: WIDTH_DIGESTS[key] for key in got}


@pytest.mark.parametrize("name", list(CUTSETS))
def test_verify_is_byte_identical(name, tmp_path, capsys):
    got = verify_digests(name, tmp_path, capsys)
    assert got == {key: VERIFY_DIGESTS[key] for key in got}


@pytest.mark.parametrize("name", list(CONSTRUCT_DIGESTS))
def test_construct_is_byte_identical(name, tmp_path, capsys):
    assert construct_digest(name, tmp_path, capsys) == CONSTRUCT_DIGESTS[name]


@pytest.mark.parametrize("name", list(REJECTIONS))
def test_malformed_cutset_is_rejected_with_the_same_message(name, tmp_path, capsys):
    overrides, stderr = REJECTIONS[name]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"format": 1, "n": 4, "m": 1, "l": 3, **overrides}))
    code = main(["verify", str(path)])
    out = capsys.readouterr()
    assert (code, out.out, out.err) == (2, "", stderr)


@pytest.mark.parametrize("command", list(HELP_TEXTS))
def test_help_is_byte_identical(command, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(command.split()[1:])
    out = capsys.readouterr()
    assert (exc.value.code, out.out, out.err) == (0, HELP_TEXTS[command], "")


@pytest.mark.parametrize("k", range(13))
def test_partition_is_byte_identical(k):
    assert partition_digest(k) == PARTITION_DIGESTS[k]


def test_partition_14_8_is_byte_identical():
    assert digest(bounded_chain_partition(14, 8).to_json()) == PARTITION_14_8_DIGEST


def search_results():
    """Every search result of the report instances for n = 3..12, keyed by (n, m, l, target).

    The elapsed time varies from run to run, so it is left out.
    """
    budget = SearchBudget(5_000, 3600.0)
    results = {}
    for n in range(3, 13):
        for m in range(n // 2 + 1):
            for l in range(m, n - m + 1):
                if TruncatedLattice(n, m, l).node_count > DEFAULT_NODE_CAP:
                    continue
                for target, run in (("h", exact_min_width), ("g", exact_min_per_level)):
                    data = run(n, m, l, budget).to_json()
                    del data["stats"]["elapsed_seconds"]
                    results[n, m, l, target] = data
    return results


@pytest.fixture(scope="module")
def searched():
    return search_results()


def search_values_digest(results):
    return digest([
        [*key, data["value"], data["witness"]]
        for key, data in results.items() if key not in CUT_OFF_AT_RECORDING
    ])


def search_counts_digest(results):
    return digest([
        [*key, data["status"], data["lower"], data["upper"], data["stats"]]
        for key, data in results.items()
    ])


def test_search_values_are_byte_identical(searched):
    assert search_values_digest(searched) == SEARCH_VALUES_DIGEST


def test_search_counts_are_byte_identical(searched):
    assert search_counts_digest(searched) == SEARCH_COUNTS_DIGEST


def report_digest():
    return digest(list(report_rows(range(3, 13), range(0, 33), SearchBudget(5_000, 3600.0), 64)))


@pytest.mark.usefixtures("no_worker_outlives_the_test")
def test_report_is_byte_identical():
    assert report_digest() == REPORT_DIGEST
