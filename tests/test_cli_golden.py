"""Golden SHA-256 hashes of CLI output files.

Every command runs in-process through `nqsim.cli.main` and must exit 0.  The
hashes pin the deterministic contract end to end: the same flags and seed give
byte-identical files, across refactors of the engine and the front end.  The
scaling output is hashed without `ks_stat`/`ks_p`.  nqsim computes both itself
(`scaling.ks_statistic`, `scaling.kolmogorov_cdf`), but their last bits follow
the platform's `math.erfc` and BLAS, so they stay out of the hash;
`sign_test_p`, from `scaling.sign_test_p`, is pinned.
"""
import hashlib
import json

import pytest

from nqsim import cli
from nqsim.cli import main

CONFIG_FILE = {"neighborhood": "asym", "rule": "min", "steps": 1500, "seed": 9, "sample_every": 250}

# (id, argv, {output flag: expected SHA-256 of that file})
CASES = [
    (
        "simulate-sym-min-m5",
        ["simulate", "--m", "5", "--neighborhood", "sym", "--rule", "min", "--steps", "3000",
         "--seed", "11"],
        {"--out": "a39e9bcd9876003ece40aec2e37f0dea9cef9a492d944f4b155f35d9d65fc195",
         "--trajectory": "388794540a704d89b320f36f7ee124c6e0cfbf2855538e9b2cec5a49715136f2"},
    ),
    (
        # 9000 steps span three of `dynamics.run`'s blocks of uniforms
        "simulate-sym-min-m5-long",
        ["simulate", "--m", "5", "--neighborhood", "sym", "--rule", "min", "--steps", "9000",
         "--seed", "14"],
        {"--out": "3a007675dfb2c710f543da294db40b4e41fe678b6fa2193f88bf0182b48b2c6a",
         "--trajectory": "eba5227007531e25a04e0ecd8e66d139edb638b0f8bb470415ccf370a50ff3c6"},
    ),
    (
        "simulate-asym-min-m6",
        ["simulate", "--m", "6", "--neighborhood", "asym", "--rule", "min", "--steps", "3000",
         "--seed", "12"],
        {"--out": "862e13206bca2d3f2e1fbef1913d366093d5706183fbec9a7bef3e7a8aff7857",
         "--trajectory": "a60a99c1d090c3ee283add1320f7128f1793a1d53cd708be75a2edd3790aa1f6"},
    ),
    (
        # ties of 10, 8 and 6 sites, where n copies of 1/n can add up to less than 1
        "simulate-asym-min-m10",
        ["simulate", "--m", "10", "--neighborhood", "asym", "--rule", "min", "--steps", "3000",
         "--seed", "15"],
        {"--out": "5a683db5d17ae7a2439c37749f4d5bcd9f596c87cbab72279d0453219374ce50",
         "--trajectory": "ed2e72a88125459df8c471f3d72cda0f257035819c10a318f566ec331bd25550"},
    ),
    (
        "simulate-asym-softmax-init",
        ["simulate", "--m", "5", "--neighborhood", "asym", "--rule", "softmax", "--beta", "0.5",
         "--init", "3,0,1,0,2", "--stream", "2", "--sample-every", "100", "--steps", "2000",
         "--seed", "13"],
        {"--out": "82fdd968e73c1efb04efe51b72da13485bbe4aa8dd7d2e0c664533237fecd6fc",
         "--trajectory": "03d1ad010e6265082fcfd92e72cdcc113b4d034cce94befa21b01e9c136d602a"},
    ),
    (
        "simulate-sym-max-m6",
        ["simulate", "--m", "6", "--neighborhood", "sym", "--rule", "max", "--steps", "1000",
         "--seed", "4"],
        {"--out": "694e9cb39da1c1157209336dbc6a86a9797052e21a01fd77d8210e3fa300791d",
         "--trajectory": "3a15e1f79946f51cc86fff4ac5ffb5a11ed75bdc23d92f5b4da62ad4637666f9"},
    ),
    (
        "simulate-config-file",
        ["simulate", "--m", "4", "--config", "{config}"],
        {"--out": "796e1d2b5c33a330cbe7fd3d2cc757d1acafecdf8fff869f1f22caf258d85ca0",
         "--trajectory": "0d861d24a89b53c0b9ac9d01160a3b3d0d682ad63301f8efbbfe48839756d3d3"},
    ),
    (
        "enumerate-m8-json",
        ["enumerate", "--m", "8", "--format", "json"],
        {"--out": "83eea5b16b6981503036e4fe231cbeec6e4233255e0bf96f6a6e2eb46bd5e206"},
    ),
    (
        "enumerate-m8-csv-rotation",
        ["enumerate", "--m", "8", "--format", "csv", "--up-to-rotation"],
        {"--out": "8ea1f14db1ccd8c07b229c30e1b973e7986c9888a19733aee98be0732d671d03"},
    ),
    (
        "enumerate-m8-table-from-empty",
        ["enumerate", "--m", "8", "--format", "table", "--from-empty"],
        {"--out": "4425f17a45a1f996489e0851fa0d3537c26ef42ce414f3419f3f552ffc1b09ff"},
    ),
    (
        "enumerate-m13-counts",
        ["enumerate", "--m", "13", "--counts"],
        {"--out": "84dd1d5351715a98aa4840b4a6c85554864a7cde1728c68075b1266b19e8e188"},
    ),
    (
        "verify-asym-odd-m5",
        ["verify", "--suite", "asym-odd", "--m", "5", "--replicas", "20", "--steps", "2000",
         "--seed", "1"],
        {"--out": "10ce952b27c4dfdb0a407d54f0e104d73eba309de5717f4d6e672c43b75444fe"},
    ),
    (
        "verify-asym-even-m6",
        ["verify", "--suite", "asym-even", "--m", "6", "--replicas", "20", "--steps", "2000",
         "--seed", "2"],
        {"--out": "90b87e74b475190a322b4bf89923601a58f551c0fe52453ed2ff71bdf2758535"},
    ),
    (
        "verify-sym-m5",
        ["verify", "--suite", "sym", "--m", "5", "--replicas", "20", "--steps", "4000",
         "--seed", "3"],
        {"--out": "eb2692bbd5d32bae5ed37a3cfd339659b644e8fa3f9a0e2eac3fb169a0a21c17"},
    ),
    (
        "verify-appendix-sym-m6",
        ["verify", "--suite", "appendix", "--m", "6", "--neighborhood", "sym", "--replicas", "20",
         "--steps", "2000", "--seed", "4"],
        {"--out": "5a482b5082f403834bda57b9886de83d73ec98892d1e17f26053b0cf9239b455"},
    ),
    (
        "verify-appendix-asym-m5",
        ["verify", "--suite", "appendix", "--m", "5", "--neighborhood", "asym", "--replicas",
         "20", "--steps", "2000", "--seed", "5"],
        {"--out": "9107f6aa87e86622e3ebec9d224b610dc74b5984bf6e6b4a35d3b5dce5a24d60"},
    ),
    (
        "verify-algebra-m7",
        ["verify", "--suite", "algebra", "--m", "7", "--trials", "50", "--seed", "6"],
        {"--out": "609062a70f5644551b114a00753801e648494a66a89df4f75996eb9d4befa55c"},
    ),
    (
        "scaling-m4",
        ["scaling", "--m", "4", "--replicas", "100", "--steps", "2048", "--seed", "7"],
        {"--out": "28cbee96dde65e9ec46796c0ad807062fabb1eeb6ecea5272a621cadceca5257"},
    ),
]


def _digest(flag: str, path) -> str:
    data = path.read_bytes()
    if flag == "--out" and path.name.startswith("scaling"):
        payload = json.loads(data)
        del payload["ks_stat"], payload["ks_p"]
        data = json.dumps(payload, sort_keys=True, indent=2).encode()
    return hashlib.sha256(data).hexdigest()


def _run_case(tmp_path, capsys, case_id, argv, expected) -> dict:
    """Run one case through `main`; the SHA-256 of each file it writes, by flag."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps(CONFIG_FILE))
    argv = [str(config) if a == "{config}" else a for a in argv]
    paths = {flag: tmp_path / f"{case_id}{flag.replace('-', '_')}" for flag in expected}
    for flag, path in paths.items():
        argv += [flag, str(path)]
    assert main(argv) == 0, capsys.readouterr().err
    return {flag: _digest(flag, path) for flag, path in paths.items()}


@pytest.mark.parametrize("case_id, argv, expected", CASES, ids=[c[0] for c in CASES])
def test_output_hashes_unchanged(tmp_path, capsys, case_id, argv, expected):
    assert _run_case(tmp_path, capsys, case_id, argv, expected) == expected


def test_successive_commands_share_one_parser(tmp_path, capsys):
    # `main` builds its parser on the first call and reuses it: every
    # subcommand, each run after a different one, still writes the golden bytes.
    picked = ("simulate-asym-softmax-init", "enumerate-m8-csv-rotation", "verify-appendix-asym-m5",
              "simulate-config-file", "scaling-m4", "enumerate-m13-counts", "verify-algebra-m7")
    cases = {c[0]: c for c in CASES}
    main(["enumerate", "--m", "4", "--counts", "--out", str(tmp_path / "warm-up")])
    built = cli._parser.cache_info()
    for case_id in picked + picked[:1]:
        _, argv, expected = cases[case_id]
        assert _run_case(tmp_path, capsys, case_id, list(argv), expected) == expected, case_id
    after = cli._parser.cache_info()
    assert after.misses == built.misses and after.hits == built.hits + len(picked) + 1
