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
candidate under the symmetries of the selection was.

The verify digests hold the exit code and output of ``boolcut verify``,
recorded before verify read the width off the file's own chains; they must
never change.
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
from boolcut.cli import main, report_rows
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
SEARCH_COUNTS_DIGEST = "fd7b570a08aa8e0cae0b01af81d7f54e70d3d13a7feae4d2a607a1d392659466"

# Every row of `report --n-min 3 --n-max 12`, at 5,000 nodes per search.
REPORT_DIGEST = "f69302b69f8354d74d9c460a621443e5a9f523f7aa48997cdb08915b639c4f8a"


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
