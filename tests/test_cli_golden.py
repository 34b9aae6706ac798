"""Golden stdout digests of seeded graph-layer commands.

Each command runs in-process, with inputs built by earlier `construct`
commands, and must print output with the recorded SHA-256 and exit with the
recorded code.  The digests were recorded before `Hypergraph.adjacency`
replaced the per-call adjacency builds, so they pin the output of the clique
queries, the cuts, the greedy clique removal and the bipartite analyzer
across that change; criterion 9 only compares runs of one implementation.
The rows from "perturb-3-keep-cancellative" on were recorded before the
exact cut moved to per-block masks, the clique removal to a single clique
listing and the cancellative perturbation to one incremental state.  The
rows from "random-cancellative" on were recorded before both incremental
search states moved onto one pair-cover graph (`hypergraph.PairCover`): the
greedy maximal cancellative construction, the cancellativity and
neighbourhood checks, and, through `nodes_explored` and the witnesses, the
searches of both states.
The rows from "stability-cancellative" on were recorded before every
extractor measured (epsilon, delta) through one helper and the bipartite
analyzer took its internal counts from one bad-edge list: the cancellative
extractor, a block swap in the analyzer, and a scan that repeats each n.
The rows from "verify-link-count" on were recorded before `verify`, `run`
and the `construct --json` metadata moved onto dispatch tables; so were the
help-screen digests.  The cache rows name a relative cache path, which
resolves in the test's own directory, where no cache exists.
A change that means to alter one of these outputs must say so and re-record.
"""

import contextlib
import hashlib
import io

from turanlab import cli, search
from turanlab.cli import CERTIFICATES, COMMANDS, run

# (name, argv, file the stdout is saved to or None, exit code, SHA-256 of stdout);
# "{x}" in argv is the path of the file saved as x
GOLDEN = [
    ("turan-3", "construct turan --n 26 --r 3 --ell 3", "t26", 0,
     "c442f0e6be72312edd293e7178f24c093f4cf3ac3e9c0c687fe1a8e08c23a1f2"),
    ("perturb-3", "construct perturb {t26} --delete-fraction 0.05 --seed 3", "h3", 0,
     "f992b33d3bfc51c4fd1817c8c1ef771e2b42020a5dab94f41696795636dcbb02"),
    ("perturb-3-add", "construct perturb {t26} --delete-fraction 0.05 --add-count 3 --seed 3", "h3bad", 0,
     "4e8506a6873de05b61d88fbcd5a0c5cb0b8b64bc23e99c1bc346991b0ed584ad"),
    ("turan-2", "construct turan --n 14 --r 2 --ell 3", "t14", 0,
     "463bb9c8b38656d9fcce2c782972e2646a08ccaef3bdf1fa4561cdcee6979f4f"),
    ("perturb-2-add", "construct perturb {t14} --delete-fraction 0.1 --add-count 4 --seed 2", "g2", 0,
     "25f60ad792b703f09b9313e66626ddba6e22e4e2f41a4f81e59526b99fde4355"),
    ("turan-2-ell4", "construct turan --n 12 --r 2 --ell 4", "t12", 0,
     "16ed169c3b8c611a4b24f804eb15cd9445646d4f99661652b46c70923c48dd02"),
    ("perturb-2", "construct perturb {t12} --delete-fraction 0.2 --seed 5", "g2free", 0,
     "903856483d652a003140e1ebf0cf5a4696e2f399b2fc818fcda6f7d1ccfcdae0"),
    ("triangle-free", "construct triangle-free --n 40 --epsilon 0.02 --noise 6 --seed 4", "tf", 0,
     "db209f8f62fdc7e4d0ce854c50bac2f56bc5f4e6bb0373f444c67f62b06c22f2"),
    ("verify-k-free", "verify k-free {h3} --ell 3", None, 0,
     "6f6f71bd8a548c7d47916abc0516ec8a4cc7ff6f4802641966b4afbe79a0afc4"),
    ("verify-k-free-violated", "verify k-free {h3bad} --ell 3", None, 1,
     "371c77510cc931944441685b8302c1241e1f26d6c93332a1c6df86cb5f04787f"),
    ("verify-fisher-ryan", "verify fisher-ryan {g2free} --ell 4", None, 0,
     "ce8e2157c8752937aaa587141071add6ad3a005728464e39e8d09adbd4a79342"),
    ("stability-kfree", "stability kfree {h3} --ell 3 --seed 1", None, 0,
     "13b2adbe552a3099e16abbe0655a1fc91c2f53cd1e15a152c220dfc113e5f349"),
    ("stability-kfree-json", "stability kfree {h3} --ell 3 --seed 1 --json", None, 0,
     "eedf0a8f373915f68f3a97638c2140e0381349e29186629323a559d442bd9575"),
    ("stability-generalized", "stability generalized {g2} --ell 3 --r 3 --seed 2", None, 0,
     "328d82a56302417d8146b597e59244bbf3a0593a6d1fb8831b5f0736dcfdd550"),
    ("stability-generalized-json", "stability generalized {g2} --ell 3 --r 3 --seed 2 --json", None, 0,
     "a53b191b6c6d5487dd676536d1e7500ca585f0f4b0f8cf5a1ade334cc99c83d3"),
    ("stability-bipartite", "stability bipartite {tf} --seed 3", None, 0,
     "3d0beef8a2ab0de51678134f3e4630be363d63efca4755aa43923f6a80ad83c3"),
    ("stability-bipartite-json", "stability bipartite {tf} --seed 3 --json", None, 0,
     "f63f2b3a852c927eb1a9eff2a954159d36726b7a10b791b326302d26ba906124"),
    ("scan-kfree", "scan --kind kfree --n 12,24 --params 0.0,0.05 --seeds 1,2", None, 0,
     "bc92b2501e610a65f69443d481c331794adaf1bfdfb71c8df891ff0d1534de3b"),
    ("scan-triangle-free", "scan --kind triangle-free --n 16,30 --params 0.01,0.03 --seeds 1,2 --noise 4", None, 0,
     "a7bebe5ff039776482a9851b665d36cc63c0102720c76811e4c5269649dd1ba3"),
    ("precondition-kfree", "stability kfree {h3bad} --ell 3 --seed 1", None, 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("precondition-bipartite", "stability bipartite {g2} --seed 3", None, 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    # h3 plus five cancellativity-preserving triples; h3bad is not cancellative,
    # so it comes back with no additions
    ("perturb-3-keep-cancellative",
     "construct perturb {t26} --delete-fraction 0.05 --add-count 5 --seed 3 --keep-cancellative", None, 0,
     "e9ab2a8794cfc85d4b1155fac0322193318857b293799aa2865176b46b720e9a"),
    ("perturb-3-keep-cancellative-base-not-cancellative",
     "construct perturb {h3bad} --delete-fraction 0.0 --add-count 5 --seed 3 --keep-cancellative", None, 0,
     "4e8506a6873de05b61d88fbcd5a0c5cb0b8b64bc23e99c1bc346991b0ed584ad"),
    ("turan-3-n18", "construct turan --n 18 --r 3 --ell 3", "t18", 0,
     "51ef74b4e7a53936c7a9cff201b3ce4856e5196454e045529a367a3350f4af73"),
    ("perturb-3-n18", "construct perturb {t18} --delete-fraction 0.05 --seed 4", "h18", 0,
     "cbf87a9b36f437101afe552d00ba62aa804349dae01bf6ebed8754795b98705b"),
    # n = 18 <= EXACT_CUT_CEILING: the exact cut
    ("stability-kfree-exact-json", "stability kfree {h18} --ell 3 --seed 1 --json", None, 0,
     "94294fce80a69aff3b6dba1ce1f7bcb2308f7b4002dac36edf174752f672045c"),
    ("turan-2-n20", "construct turan --n 20 --r 2 --ell 3", "t20", 0,
     "11d1076efdd9c5f962183dd88111e66871b6ce90bc5ecb3f40decdd54200698b"),
    ("perturb-2-n20-add", "construct perturb {t20} --delete-fraction 0.05 --add-count 30 --seed 6", "g20", 0,
     "aa7cd2994b7b5d1ef137b3b82a7716c05163379fd1f9425ce55e1b8cbaf0b10b"),
    # 31 removal rounds, then the exact cut of the cleaned graph
    ("stability-generalized-many-rounds-json", "stability generalized {g20} --ell 3 --r 3 --seed 2 --json", None, 0,
     "3e66b8c4484d37a140478feb489713dd5364f08455071f13aeac60b29840d078"),
    # the search rows pin nodes_explored and the witnesses of both predicate states
    ("random-cancellative", "construct random-cancellative --n 12 --seed 3", None, 0,
     "71e94f7416bf17f8f52b9c55e46c171475c1681f90123d552e84df8cfc63e9cf"),
    ("random-cancellative-json", "construct random-cancellative --n 12 --seed 3 --json", None, 0,
     "a07770ec7d123f9f1f9a7bc8d54ab9ccd4d87266f1a13317f4dcb4996f1c6588"),
    ("verify-cancellative", "verify cancellative {h3}", None, 0,
     "8154b2f717e11f4f6dc95a5b350bf0efce3eef9abd12838e53b5a2bd48d0e38b"),
    ("verify-cancellative-violated", "verify cancellative {h3bad}", None, 1,
     "64d956bc4268137ba25243f92e1219fbebb99920dfb14465196fd0b9e3e571d1"),
    ("verify-neighborhoods-independent", "verify neighborhoods-independent {h3}", None, 0,
     "b1986295e43ce589c9d4f991aabf3902f473e2dad8d59d430abb038dc9dbdbb5"),
    ("verify-neighborhoods-independent-violated", "verify neighborhoods-independent {h3bad}", None, 1,
     "ad336948955dfc1072d98cfaca4bd3807148ca78fe0d167b00d76f043e35f5ff"),
    ("verify-links-triangle-free", "verify links-triangle-free {h3}", None, 0,
     "2f59eb01ac6862796768779cacfb743b41e99c39d6f8a444f4a721324ec1b2c6"),
    ("verify-links-triangle-free-violated", "verify links-triangle-free {h3bad}", None, 1,
     "75ef94074e248207a526389b76bab8e68483c46672d5bf8d510b06ccb4d5cdb3"),
    ("search-cancellative-7", "search --n 7 --r 3 --predicate cancellative --no-cache", None, 0,
     "637b51f0b6c67f72477f93a25424012bb28b3a0b787894fb3c63df34d35bee51"),
    ("search-k-free-r3-ell3-6", "search --n 6 --r 3 --predicate k-free --ell 3 --no-cache", None, 0,
     "60d31f5f23c9b660c8c9995824ccfb9bc7196303f60b6ded4b71671230402f0e"),
    ("search-k-free-r4-ell4-5", "search --n 5 --r 4 --predicate k-free --ell 4 --no-cache", None, 0,
     "e25780c986124699b6c483c485ea291b0cd45bbb824312e4b01ecc4003e6ebf8"),
    # re-recorded when the graph searches began to subtract a packing of forbidden
    # cliques (`KFreeState.lost`): only nodes_explored moved, 2,270 -> 479 and
    # 543 -> 157; the digests before were f69e46bc... and c801eed9...
    ("search-triangle-free-8", "search --n 8 --r 2 --predicate triangle-free --no-cache", None, 0,
     "03eff9158e4122e259ab427437c01f63f703b254ec9f6e34466a068b9d4e0e4a"),
    ("search-k-free-r2-ell3-6", "search --n 6 --r 2 --predicate k-free --ell 3 --no-cache", None, 0,
     "bdecbf3c9f760a068c98e5b7b2031d67f561455f9463633422143e606d69c238"),
    ("search-cancellative-7-budget", "search --n 7 --r 3 --predicate cancellative --no-cache --budget 50", None, 3,
     "134260010dc9ca7627d4f5e5139c7dccb6ee40126b4e7e742d6946f6468fadb8"),
    ("stability-cancellative", "stability cancellative {h3}", None, 0,
     "13b2adbe552a3099e16abbe0655a1fc91c2f53cd1e15a152c220dfc113e5f349"),
    ("stability-cancellative-json", "stability cancellative {h3} --json", None, 0,
     "8ee72bbe594671a4b624dfc43318eaa36fa3e0892b949ad937fe0b2124aa5457"),
    ("stability-cancellative-n18-json", "stability cancellative {h18} --json", None, 0,
     "62a37f133689e4858c5568a63c0ca61206587fb42625ddaf05cca1bd1b6fda26"),
    ("triangle-free-n24", "construct triangle-free --n 24 --epsilon 0.02 --noise 8 --seed 0", "tf24", 0,
     "5d9dbd841a2b82584d6dcb2d6950274b031a1e203a34952021262e488d2dc5b6"),
    # the cut puts the one internal edge in its second block, so the analyzer swaps blocks
    ("stability-bipartite-swap", "stability bipartite {tf24} --seed 0", None, 0,
     "2e5e1de187a876b919011efec8da239355bf8021f3d6e59a53d24a8792f44f11"),
    ("stability-bipartite-swap-json", "stability bipartite {tf24} --seed 0 --json", None, 0,
     "9ef37190041b1b26ab3520c6f4af8afcb65930334fd65f9fe7ece8d6f0f70bd6"),
    # each n comes twice, once per delete fraction
    ("scan-cancellative", "scan --kind cancellative --n 15,30 --params 0.01,0.05 --seeds 1,2", None, 0,
     "c73591d128416ddc145f0fe15b018e2f108ba92158a3008547f21ff3da394239"),
    ("verify-link-count", "verify link-count {h3}", None, 0,
     "d3b805f18c36ceb1321e910f1ce1affa29b8f9298cc0ff60e278bc4ac98987be"),
    ("verify-link-count-not-cancellative", "verify link-count {h3bad}", None, 0,
     "c7552a5f142c79a0cfea62446eb866a266af3e0ccfa605ddb07fb0055631181f"),
    ("verify-inequality2", "verify inequality2 {h3}", None, 0,
     "eebdbeec6bfa3adad4bfdd5dfd0164451ffe13de1d8f48c3f51de99964981ae7"),
    ("verify-theorem13", "verify theorem13 {h3}", None, 0,
     "1cc1923b395677bb393844417b97f7b86e19f68f4da2bf01a04ff73b339972b4"),
    ("verify-mantel-link", "verify mantel-link {h3}", None, 0,
     "91653152f8b32beafacadb2c5a247a795e399751fb2365adf9861884d2bc9d7c"),
    # the three certificates that require a cancellative input refuse h3bad
    ("precondition-inequality2", "verify inequality2 {h3bad}", None, 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("precondition-theorem13", "verify theorem13 {h3bad}", None, 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("precondition-mantel-link", "verify mantel-link {h3bad}", None, 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("precondition-fisher-ryan-no-ell", "verify fisher-ryan {g2free}", None, 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("precondition-k-free-no-ell", "verify k-free {h3}", None, 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("turan-3-n12-json", "construct turan --n 12 --r 3 --ell 3 --json", None, 0,
     "853fabfbb617de99da252fcae4be5287270c77fff78f88249981be07ee19e2e2"),
    ("perturb-3-json", "construct perturb {t26} --delete-fraction 0.05 --seed 3 --json", None, 0,
     "39f1e559b7442f6099f09be99556a3ada30c2c5328840a7d58f4299d5d1590a3"),
    ("triangle-free-n24-json", "construct triangle-free --n 24 --epsilon 0.02 --noise 8 --seed 0 --json", None, 0,
     "ac748b243771cccbb1a06a2c1a11a52f12a192a7bf33f7438fbfba6a730e49c4"),
    ("cache-list-empty", "cache list --cache golden-cache.jsonl", None, 0,
     "2e9dc2590b825798d8e77c34d959e1b61e5c2651652aaab26eac6f94e6a68a23"),
    ("cache-get-miss", "cache get --predicate cancellative --n 7 --r 3 --cache golden-cache.jsonl", None, 1,
     "7c87bc2b2f5c7d3a2a5622e227d898545afc3322df411e76e2c3ab6109877f1d"),
]

# argv -> SHA-256 of the help screen it prints at COLUMNS=80
HELP_DIGESTS = {
    "--help": "a779ee45b9da2b97f23b7ee0e675b9ef1c75f00bde3b52f3dc37d80efcb0965f",
    "construct --help": "8bf803f1fe3d4b1eba582eb97a336dd13ccf8b42685882c6b252c0858e9578e4",
    "construct turan --help": "0d3405492c8152c94662fa7b32b80930b3087ea82d96cb530190c3d4441c6569",
    "verify --help": "5575042351129f9d51601afc3d62cc8e1146b82a6962b3b24adaba7591057d91",
    "search --help": "9241dedddfa2c7e2b8b7028636ca0d55e85c19f003f8d25370f7b84d18024bc4",
    "stability --help": "3aae940516d1b35eb6e8849df0bee7a44d08e9763106f73a675767b308accd0a",
    "scan --help": "32d11c2eedff018c14b3c653ed8d44f8a21e7a4be59b57d48fe557201e57a87e",
    "cache --help": "54348b916c09f1be518d4f2831d7cff34bd72ee91c1508ed5fdb3c5c59663250",
}


def run_golden(tmp_path):
    """{name: (exit code, SHA-256 of stdout)} over GOLDEN, in order."""
    files, got = {}, {}
    for name, argv, save_as, _, _ in GOLDEN:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()), contextlib.chdir(tmp_path):
            code = run(argv.format(**files).split())
        text = out.getvalue()
        if save_as is not None:
            files[save_as] = str(tmp_path / f"{save_as}.txt")
            with open(files[save_as], "w", encoding="utf-8") as fh:
                fh.write(text)
        got[name] = (code, hashlib.sha256(text.encode()).hexdigest())
    return got


def test_cli_golden_digests(tmp_path):
    got = run_golden(tmp_path)
    assert got == {name: (code, digest) for name, _, _, code, digest in GOLDEN}


def test_cli_help_digests(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal width
    got = {}
    for argv in HELP_DIGESTS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert run(argv.split()) == 0
        got[argv] = hashlib.sha256(out.getvalue().encode()).hexdigest()
    assert got == HELP_DIGESTS


def test_golden_rows_cover_every_subcommand_and_certificate():
    argvs = [argv.split() for _, argv, _, _, _ in GOLDEN]
    assert set(COMMANDS) <= {argv[0] for argv in argvs}
    assert set(CERTIFICATES) <= {argv[1] for argv in argvs if argv[0] == "verify"}


def test_search_parser_spells_the_search_constants():
    # cli.py repeats them so that building the parser imports no search code
    assert (cli.PREDICATES, cli.NODE_BUDGET) == (search.PREDICATES, search.NODE_BUDGET)
