"""Golden reports: the exit code and the sha256 of stdout of whole CLI calls.

Each case pins one report byte for byte, so a change that alters any
report, down to a key order or a trailing newline, fails here.  The cases
cover every subcommand, the four exhausted-search payloads (in JSON and
CSV), float mode (with balls a part in 10^12 from a gap, where float
and exact mode pick different steps), a schema error, a flag that is not
JSON, one past Python's digit limit, and explicit weights that run out
mid-search.  After an intended report change, re-pin a case with
`report_digest`.
"""

import hashlib

import pytest

from aporbit.cli import main

CONST2 = '{"kind": "constant", "value": "2"}'
UNIT = '{"kind": "unit"}'
VALLEY2 = '{"kind": "valley", "depth": 2}'
BILATERAL_SUM = (
    '{"kind": "direct-sum", "parts": ['
    '{"kind": "power", "exponent": 2, "inner": {"kind": "backward", '
    '"weights": {"kind": "constant", "value": "3/2"}, "laterality": "bilateral"}}, '
    '{"kind": "scaled", "scalar": "-1/2", "inner": {"kind": "forward", '
    '"weights": {"kind": "valley", "depth": 1}, "laterality": "bilateral"}}]}'
)

CASES = {
    "analyze-set": (
        ["analyze-set", "--set", "[1,2,3,5,7,9,11,24,25]", "--window", "5"],
        0,
        "2a66da5a1fd37460d6ca4a0ad2a6c42f27776b7dfae175b679d48f62340cd50f",
    ),
    "orbit": (
        ["orbit", "--operator", BILATERAL_SUM, "--x", "[[-3,1,3],[0,1,1],[5,2,7]]",
         "--scalars", "dyadic-sqrt", "--horizon", "12"],
        0,
        "69f3b513c6c58aea1e6e5b08253470429e6f9f2ca54e30c4034ff5b3e0767be2",
    ),
    "orbit-csv": (
        ["orbit", "--operator", '{"kind": "backward", "weights": ' + CONST2 + "}",
         "--x", "e3", "--horizon", "5", "--output", "csv"],
        0,
        "d96490cbc463fcdd79b3b6f5543fe159aa4d2ed66d5ea69f92419d7b4492d558",
    ),
    "return-set": (
        ["return-set", "--operator",
         '{"kind": "power", "exponent": 2, "inner": {"kind": "backward", "weights": '
         + VALLEY2 + "}}",
         "--x", "[[0,1,1],[26,1,1],[31,1,2]]", "--ball", '{"center": "e0", "radius": "3/2"}',
         "--horizon", "30"],
        0,
        "532349521c0e749dff2068b356d3f6c80e1cbbed5ebe1471500d5f033e4d09f2",
    ),
    "shift-check": (
        ["shift-check", "--weights", VALLEY2, "--epsilon", "1/4", "--p-max", "1",
         "--m-max", "2", "--q-max", "150"],
        0,
        "c9fb043d826435a19b283022bc183658eb084b2fc36faa17fa0115022812b291",
    ),
    "multirec": (
        ["multirec", "--weights", VALLEY2, "--p", "2",
         "--ball", '{"center": [[0,1,1],[1,-1,2]], "radius": "1/2", "p": 2}', "--m", "2",
         "--q-max", "130"],
        0,
        "7aca5eee0e3263726e83ed513fd87086b7210d9c3916be929e2f79fd17b14ad9",
    ),
    "universal": (
        ["universal", "--scalars", "dyadic-sqrt", "--y", "[[0,1,1],[2,-1,3]]", "--m", "3",
         "--k", "9", "--p", "2"],
        0,
        "89f0d83691b443b107653025bb0885761e7cc773880020b1446888870e334456",
    ),
    "gowers": (
        ["gowers", "--l-min", "4", "--l-max", "12"],
        0,
        "95110877f827c660e49b6dd64da29e1a822e547f33a4515bf0120cc941b6a75f",
    ),
    "szemeredi": (
        ["szemeredi", "--n", "12", "--k", "3"],
        0,
        "2bc43b97bdf4e352eb51c7677578cba1ef0a9dfab5d84b1aa6809f89a763995d",
    ),
    "vdw": (
        ["vdw", "--n", "8"],
        0,
        "a04b150ef1bde0b42e375cce87c7d0a7f652b6abde9f187efe80e60ef1fd54d9",
    ),
    "pair-search": (
        ["pair-search", "--weights", CONST2, "--u", '{"center": "e0", "radius": "1/2"}',
         "--v1", '{"center": [], "radius": "1/2"}', "--v2", '{"center": "e0", "radius": "1/2"}',
         "--m", "1"],
        0,
        "d8a1f137f3fb6f8108148544584b46028e86af34f53dc06a40c03233167ed641",
    ),
    "nested": (
        ["nested", "--weights", CONST2, "--ball", '{"center": "e0", "radius": "1/2"}',
         "--stages", "2", "--q-max", "64"],
        0,
        "97d3d32f31749ae93d986804c3d8a85a938603c061bb44a8a07baf3ecf95648f",
    ),
    "puig-count": (
        ["puig-count", "--operator", '{"kind": "backward", "weights": ' + CONST2 + "}",
         "--x", "[[0, 1, 1], [3, 1, 8], [6, 1, 64]]",
         "--ball", '{"center": "e0", "radius": "1/4"}', "--m", "2", "--q", "3",
         "--horizon", "12"],
        0,
        "bafeddee01ef37c10f4dba208f42a8816f838c168fa937427152d8b39aa4b7c8",
    ),
    "sweep": (
        ["sweep", "--command", "multirec", "--grid",
         '{"weights": [' + CONST2 + ", " + UNIT + '], '
         '"ball": [{"center": "e0", "radius": "1/4"}], "m": [1, 2], "q_max": [20]}'],
        1,
        "3bfa3b22da6574dfc8a18f459c889eca1b30f95dd3be10644f861b53865c636d",
    ),
    "multirec-exhausted": (
        ["multirec", "--weights", UNIT, "--ball", '{"center": "e0", "radius": "1/4"}',
         "--m", "1", "--q-max", "30"],
        1,
        "7332d9b9c07c56b3956f7ef556672ee2e58b8492fc115f2f067f0d6ad662cb13",
    ),
    "pair-search-exhausted": (
        ["pair-search", "--weights", UNIT, "--u", '{"center": "e0", "radius": "1/2"}',
         "--v1", '{"center": "e1", "radius": "1/4"}', "--v2", '{"center": "e0", "radius": "1/4"}',
         "--m", "1", "--a-max", "6", "--q-max", "6"],
        1,
        "85f0510cd2042bb42969d05cff48989c4afebf2bf3f4d61e9c9f1d0bce3088a8",
    ),
    "nested-exhausted": (
        ["nested", "--weights", UNIT, "--ball", '{"center": "e0", "radius": "1/2"}',
         "--stages", "1", "--q-max", "15"],
        1,
        "a01f2f509bd80daf57b31ae113ac03960c01e6a33bbe0f3af8ba8afa551e5a1c",
    ),
    "orbit-float": (
        ["orbit", "--mode", "float", "--operator",
         '{"kind": "backward", "weights": {"kind": "constant", "value": "3/2"}}',
         "--scalars", "exp-sqrt", "--x", "[[0,1,1],[3,1,2],[7,-2,5]]", "--horizon", "8"],
        0,
        "ce59d11269dc12bfa91d28f228eb39617f74372ffa91d9a78bc929799f36c0ad",
    ),
    "puig-count-float": (
        ["puig-count", "--mode", "float", "--scalars", "exp-sqrt", "--operator",
         '{"kind": "backward"}', "--x", "[[0, 1, 1], [4, 1, 7], [8, 1, 17]]",
         "--ball", '{"center": "e0", "radius": "1/2"}', "--length", "1", "--q", "4",
         "--horizon", "12"],
        0,
        "908aeb5264906084f84efd51a41d234377fb4663bfd435a7901caa1ec42f8f40",
    ),
    "universal-float": (
        ["universal", "--mode", "float", "--scalars", "exp-sqrt", "--y", "e0", "--m", "3",
         "--k", "4", "--p", '"inf"'],
        0,
        "157d585e9845cf5ba43658511d2a3841e5e984c70320876266930b9e9b0b2b00",
    ),
    "shift-check-exhausted": (
        ["shift-check", "--weights", '{"kind":"unit"}', "--epsilon", "1/2", "--p-max", "1",
         "--m-max", "1", "--q-max", "20"],
        1,
        "b160147085f2430d9585eeaf50ee5a712031eb2d44d0792e319f2dd145f2bfb7",
    ),
    "shift-check-exhausted-csv": (
        ["shift-check", "--weights", '{"kind":"unit"}', "--epsilon", "1/2", "--p-max", "1",
         "--m-max", "1", "--q-max", "20", "--output", "csv"],
        1,
        "06c6dc9ec79e779e744870f06b2fddbfe55a2b9dfc1134079003e0f0a8ca037b",
    ),
    "vdw-csv": (
        ["vdw", "--n", "9", "--k", "3", "--output", "csv"],
        0,
        "83cc990e2ddb6ef1ffe25e89e5bfc2a2ca0e96ba35eee82fe82d0d1639dfe442",
    ),
    "nested-exhausted-csv": (
        ["nested", "--weights", UNIT, "--ball", '{"center": "e0", "radius": "1/2"}',
         "--stages", "1", "--q-max", "15", "--output", "csv"],
        1,
        "969158cec00ca03432288d95d589c1c1945ae202a909a217590d1aee66a2c2a5",
    ),
    "flag-not-json": (
        ["multirec", "--weights", CONST2, "--ball", "{bad", "--m", "1"],
        2,
        "5242e4dd133f5e836b7714822f7962056aeb1e00154097b17adb921dc8d3fa8f",
    ),
    # an integer past Python's 4300-digit limit for int() of text; the
    # report quotes the interpreter's message
    "flag-past-digit-limit": (
        ["analyze-set", "--set", "[" + "1" * 5000 + "]"],
        2,
        "100bd597013f9a941602c5f180ec35969ae6ec2a157c36645c09e5d81e74b0ff",
    ),
    "schema-error": (
        ["multirec", "--weights", CONST2, "--p", "3",
         "--ball", '{"center": "e0", "radius": "1/4"}', "--m", "1"],
        2,
        "dcaefffbb8060f684306ba9e7df4fd4df09cd4f554bcb399fe2c771e8baff758",
    ),
    # the first weight index out of range is the first one met in the
    # vector's stored order (5 before 4), not the smallest
    "orbit-weight-range-error": (
        ["orbit", "--operator", '{"kind":"backward","weights":{"kind":"explicit","values":[2,3]}}',
         "--x", "[[1,1,1],[5,1,1],[4,1,1]]", "--horizon", "1"],
        2,
        "ddd4eefa9b33a3f4ba983df739700dd2700e75201da72fab96e21f2f69fab851",
    ),
    # hits and misses within 1e-7 of the l2 boundary 3/sqrt(10)
    "return-set-forward-explicit-l2": (
        ["return-set", "--operator", '{"kind":"forward","weights":' + CONST2 + "}",
         "--scalars", '{"kind":"explicit","values":["2","37944/10000","-75896/10000","8",'
         '"-12","304/5","2304/19","-256","2304/5","3072","2048/3","38858068/10000"]}',
         "--x", "[[0,1,1],[2,-1,3]]", "--ball", '{"center":[],"radius":"1","p":2}',
         "--horizon", "12"],
        0,
        "fc1f8a3bf141f951ffa0cd7497df92fc0f06c625931bbe440e402d0ec08a82ca",
    ),
    "puig-count-bilateral-sup": (
        ["puig-count", "--operator",
         '{"kind":"backward","weights":{"kind":"constant","value":"1/2"},"laterality":"bilateral"}',
         "--scalars", "dyadic-sqrt", "--x", "[[-2,1,3],[4,8,1],[9,64,1],[16,-5,7]]",
         "--ball", '{"center":[[-3,1,5]],"radius":"1/2","p":"inf"}', "--m", "2", "--q", "3",
         "--horizon", "30"],
        0,
        "4238147a841a3156d4367825904eb285cb6a05ff9b7c715499b62fc9bd5fb524",
    ),
    # coefficients of hundreds of bits
    "orbit-power-bilateral-long": (
        ["orbit", "--operator",
         '{"kind":"power","exponent":4,"inner":{"kind":"backward","weights":'
         '{"kind":"constant","value":"3/2"},"laterality":"bilateral"}}',
         "--x", "[[-7,2,3],[0,1,1],[5,-4,9],[13,7,11]]", "--horizon", "60"],
        0,
        "38fe1d98a403596a81e3e70ef801ba1d97644cc09a789c66389fa61d8a34c55a",
    ),
    "return-set-float": (
        ["return-set", "--mode", "float", "--scalars", "exp-sqrt", "--operator",
         '{"kind":"backward","weights":{"kind":"constant","value":"3/2"}}',
         "--x", "[[0,1,1],[3,1,2],[7,-2,5],[12,1,9]]",
         "--ball", '{"center":[],"radius":"5","p":1}', "--horizon", "30"],
        0,
        "8a556f95c694ca78d1e5445818b1c034f429ad703bdfab9b35083bb24e6964d2",
    ),
    # a radius a part in 10^12 above the q = 3 gap 1/8: exact mode takes
    # q = 3, float mode's shrunk radius rejects it and takes q = 4
    "multirec-exact-near-boundary": (
        ["multirec", "--weights", CONST2,
         "--ball", '{"center": "e0", "radius": "125000000001/1000000000000"}', "--m", "1",
         "--q-max", "10"],
        0,
        "1ac0483c3402e76390c219b61d89727328879b4b069f2c999805cb5bd826d5f7",
    ),
    "multirec-float-near-boundary": (
        ["multirec", "--mode", "float", "--weights", CONST2,
         "--ball", '{"center": "e0", "radius": "125000000001/1000000000000"}', "--m", "1",
         "--q-max", "10"],
        0,
        "6a80272fc49add07f0c3ea54e761c23dccda38a9e3f621db79d066bf408dc70d",
    ),
    "multirec-explicit-weights-run-out": (
        ["multirec", "--weights", '{"kind": "explicit", "values": [2, 3]}',
         "--ball", '{"center": "e0", "radius": "1/4"}', "--m", "2"],
        2,
        "bd162317d4f169f2d526b9c67a56b0fcae78f32ee1f2b9653fad30e681d99ccb",
    ),
    # no step q = 1 candidate reaches V2, and its a-lifts run past the eighth weight
    "pair-search-explicit-weights-run-out": (
        ["pair-search", "--weights", '{"kind": "explicit", "values": [2, 2, 2, 2, 2, 2, 2, 2]}',
         "--u", '{"center": "e0", "radius": "1/2"}', "--v1", '{"center": [], "radius": "1/2"}',
         "--v2", '{"center": "e0", "radius": "1/2"}', "--m", "1"],
        2,
        "9cf590fd29fd67ecfcf012082f281e1df364d932d897de31617294ded939f50f",
    ),
    # a power of a direct sum steps the whole sum at a time: the second
    # part's list runs out at the first step, before the first part's does
    "orbit-direct-sum-power-explicit-run-out": (
        ["orbit", "--operator",
         '{"kind":"power","exponent":3,"inner":{"kind":"direct-sum","parts":['
         '{"kind":"forward","weights":{"kind":"explicit","values":["1","1","1","1"]}},'
         '{"kind":"forward","weights":{"kind":"explicit","values":["1","1"]}}]}}',
         "--x", "[[5,1,1],[6,1,1]]", "--horizon", "2"],
        2,
        "da96e5b06306c1311b6b2edad76fe0679bff834099a5406936df1b1cc099bca6",
    ),
    "pair-search-float": (
        ["pair-search", "--mode", "float", "--weights", '{"kind": "constant", "value": "3/2"}',
         "--u", '{"center": "e0", "radius": "1/2"}', "--v1", '{"center": "e1", "radius": "1/2"}',
         "--v2", '{"center": [[0,1,2]], "radius": "1/3", "p": 2}', "--m", "2",
         "--a-max", "30", "--q-max", "30"],
        0,
        "62680958adcca752a9fbca71bc939934ba363563d17a6d484006cc2a66f0ab45",
    ),
    # stage 1's probe radius is a part in 10^12 above the q = 3 gap 1/8:
    # float mode's slack rejects it and takes q = 4 (exact mode takes q = 3)
    "nested-float-near-boundary": (
        ["nested", "--mode", "float", "--weights", CONST2,
         "--ball", '{"center": "e0", "radius": "125000000001/250000000000"}',
         "--stages", "2", "--q-max", "64"],
        0,
        "41340c0907409c08c8a324f7924e58c3743501faad6026f9ad8a30b9883f010e",
    ),
    # stage 2's probe radius is a part in 10^12 above its q = 4 gap 153/2048:
    # float mode takes q = 5 there (exact mode takes q = 4)
    "nested-float-near-boundary-stage-2": (
        ["nested", "--mode", "float", "--weights", CONST2,
         "--ball", '{"center": "e0", "radius": "153000000000153/256000000000000"}',
         "--stages", "2", "--q-max", "64"],
        0,
        "55db588b0076ae336673bc262a32f75ea215b46b37840d7d0a58d9364cbf32c0",
    ),
    # V1 sits a part in 10^12 outside the q = 3 gap and U outside the
    # a = 2 gap at q = 4: float mode takes (a, q) = (3, 4), exact mode (3, 3)
    "pair-search-float-near-boundary-u-v1": (
        ["pair-search", "--mode", "float", "--weights", CONST2,
         "--u", '{"center": "e0", "radius": "17000000000017/64000000000000"}',
         "--v1", '{"center": "e0", "radius": "125000000001/1000000000000"}',
         "--v2", '{"center": [], "radius": "1/2"}', "--m", "1", "--a-max", "10", "--q-max", "10"],
        0,
        "87ec157671d8eeb0810b76cb02c4f2340c4e0d7e833f847cb384a87cbb71287e",
    ),
    # the same for V2: float mode takes q = 4, exact mode q = 3
    "pair-search-float-near-boundary-v2": (
        ["pair-search", "--mode", "float", "--weights", CONST2,
         "--u", '{"center": "e0", "radius": "1/2"}', "--v1", '{"center": [], "radius": "1/2"}',
         "--v2", '{"center": "e0", "radius": "125000000001/1000000000000"}', "--m", "1",
         "--a-max", "10", "--q-max", "10"],
        0,
        "fa8a53cb94f738cde2620b55964728efec366d185e4c6a81d61f1d1b7aaa98c6",
    ),
    # the first point is multirec-float-near-boundary's: q = 4, where exact mode takes 3
    "sweep-multirec-float": (
        ["sweep", "--mode", "float", "--command", "multirec", "--grid",
         '{"weights": [' + CONST2 + '], "ball": [{"center": "e0", "radius": '
         '"125000000001/1000000000000"}, {"center": [[0,1,1],[1,-1,2]], "radius": "1/2", '
         '"p": 2}], "m": [1, 2], "q_max": [10]}'],
        0,
        "edd818676712e53a5a3f087ab8330370c80e9c86fc2dd9c71106033495eb21fb",
    ),
}


def report_digest(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, hashlib.sha256(out.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_is_byte_for_byte(capsys, name):
    argv, code, digest = CASES[name]
    assert report_digest(capsys, argv) == (code, digest)
