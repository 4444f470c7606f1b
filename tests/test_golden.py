"""Every pinned output of the command line: one table, checked in-process.

`ROWS` is the one table of pins.  A row holds one command line, or several
that print the same bytes, the exit code they give and the sha256 of what
they print.  A word `@name` of a command line stands for a file holding the
input `name`: the output of the row whose line begins `name = `, or a
document of `DOCUMENTS`.  Each line runs through `cli.main` in this process,
once per session (`Runs`), so `tests/reach.py` counts what it reaches and
later lines read what earlier ones printed.  `test_formats.py` reads every
name printed here back.

To add a pinned output, add a row; to re-take a pin, edit its line.
"""
import hashlib
import io
import json
import shlex
from contextlib import redirect_stdout

import pytest

from polytower import cli

from util import lift_spec

EDGE = [["x0", "x1"]]
LOOP = [["x0", "x1"], ["x1", "x2"], ["x0", "x2"]]
TRIANGLE = [["x0", "x1", "x2"]]


def opened(name):
    """The tower `name` with open star covers."""
    return lambda read: dict(read(name), cover="O")


def star_cover(name, kind):
    """The cover of the complex `name` by the stars of its vertices."""

    def make(read):
        ambient = read(name)
        return {"ambient": ambient, "kind": kind, "elements": {v: {"star_of": v} for v in sorted(ambient["vertices"])}}

    return make


# name -> a literal input document, or how one is made from other inputs
DOCUMENTS = {
    "qfo": {"vertices": [], "maximal": [["q", "f", "o"]]},
    # a triangle beside a circle
    "two_pieces": {"vertices": [], "maximal": [["a", "b", "c"], ["x", "y"], ["y", "z"], ["x", "z"]]},
    "vertex_u": {"maximal": [["u"]]},
    # the triangle abc sent onto the vertex u of the edge uv: every simplex
    # of the subdivided edge but u has an empty preimage
    "constant_map": {
        "source": {"vertices": ["a", "b", "c"], "maximal": [["a", "b", "c"]]},
        "target": {"vertices": ["u", "v"], "maximal": [["u", "v"]]},
        "subdivide_target": True,
        "vertex_images": {"a": ["u"], "b": ["u"], "c": ["u"]},
    },
    "edge2_abc": lift_spec(EDGE, 2),
    "loop3_abc": lift_spec(LOOP, 3),
    "triangle2_abc": lift_spec(TRIANGLE, 2),
    "loop3": lift_spec(LOOP, 3, "qfo"),
    "triangle3": lift_spec(TRIANGLE, 3, "qfo"),
    "triangle2": lift_spec(TRIANGLE, 2, "qfo"),
    "fill": lift_spec(TRIANGLE, 0, ["v1", "v2", "v3"]),
    # the cylinder's edge uv, anchored at its bottom vertex b0 over u
    "edge_uv": lift_spec(EDGE, 2, "uv", thread=["u", "b0"]),
    "tower3O": opened("tower3"),
    "tower4O": opened("tower4"),
    "tower5O": opened("tower5"),
    "qfo3O": opened("qfo3"),
    "random35O": opened("random35"),
    "cylinderO": opened("cylinder"),
    "rp2_closed": star_cover("rp2", "closed"),
    "rp2_open": star_cover("rp2", "open"),
}

ROWS = [
    # command line(s), exit code, sha256 of stdout
    # generated inputs
    ("tower2 = gen subdivision-tower --base triangle --levels 2", 0, "4e587ca17f1881e9d05b424d54954bf791720a53044e5a9ea1ab8897d053ac79"),
    ("tower3 = gen subdivision-tower --base triangle --levels 3", 0, "a4b01dc4249e57783e986abb7082c6b33b41ba2d5e5017cda4f72ed1de738210"),
    ("tower4 = gen subdivision-tower --base triangle --levels 4", 0, "aae5847a45fb18797c8f2e58324675ab6f80dd838bd7e9119a2480f632575008"),
    ("tower5 = gen subdivision-tower --base triangle --levels 5", 0, "525950437996d48aac434dbd2d716c88a6e173e012fd606f01759648e14d0692"),
    ("tower6 = gen subdivision-tower --base triangle --levels 6", 0, "f61e54dd7c71299c5ca4fec24d72da8161327f32e1207542b2f0ed4499eefa87"),
    ("tetra2 = gen subdivision-tower --base tetrahedron --levels 2", 0, "f98acea24d61b706112ecea5f3d85f7f4adb26b32aa7c7ae9f9e73de328a63a3"),
    ("tetra3 = gen subdivision-tower --base tetrahedron --levels 3", 0, "2158b67fd9343d5c6fa0a8d34529b2606ef0eb0f8e883bd4293a7786bc7743af"),
    ("tetra4 = gen subdivision-tower --base tetrahedron --levels 4", 0, "a2c602d858475b590963dba50cdc8296543108666bb5a84e9e3c19c16e1dbdfb"),
    ("rp2tower = gen subdivision-tower --base rp2 --levels 4", 0, "50377a0c0e32f7816ccf2cbef45c14a152354b959241afcc79cde97d1d30dc2d"),
    ("qfo2 = gen subdivision-tower --base @qfo --levels 2", 0, "d74ee1b899256c1921f864addbd7b6312f8b65919d7a1e65b5d7216c97af5889"),
    ("qfo3 = gen subdivision-tower --base @qfo --levels 3", 0, "30f13b1b5330327dfe9d8c6ac21f49b5e5e40627c445de9fb644dfa3491cf6b7"),
    ("random103 = gen random-tower --seed 103 --levels 3", 0, "0adbee5e6a5a235e6ebc30009aa633d84af7ccb5e85cf3b516ce6bebe6ce3a92"),
    ("random35 = gen random-tower --seed 35 --levels 2", 0, "3bcd680f561eac80b0007acfd028652778db85d7ca17e81fe5714bb639acce5a"),
    ("cylinder = gen cylinder-tower", 0, "cdac0970dd676f94d926ab78f2a630fac5155ac68ad164f9d26cb3c800b8f40e"),
    ("cylmap = gen cylinder", 0, "fd4cbd5d6eb9dfbdfe872bd61555dd0c9cd3bcbe3330551c4f1ce7628c11a3c8"),
    ("rp2 = gen rp2", 0, "c991ceda10d916fe301866beeccb2f003a0e481c8132e6ce686c554ece8bb6af"),
    ("circle = gen circle", 0, "40ddb2a8174c54666f9efadd00a7e8c37a69a803c9701f8cfa56eac9d088475b"),
    ("s3 = gen sphere --dim 3", 0, "103d7720e633f238ab0a9b87ad81adc43845f8337db91eeb071156a73a249773"),
    ("rp2_sd = subdivide @rp2", 0, "6ab967029b6cde4fd2254068e368b58634990e1345d57062ea749850fdacabce"),
    # verify-tower on subdivision towers, closed and open star covers
    ("verify-tower @tower3 --n 2", 0, "257eb12303b965347e8eebc75847c2b30f9d014b4f6abc318130fa7e5da71b7b"),
    ("verify-tower @tower3O --n 2", 0, "fade5394cbbaa89a3cfba39d2b7dc564af054bf1db572519d7889d84fbf4b570"),
    ("verify-tower @tower4 --n 2", 0, "1b3e08c78f0998d1b30850c6865837e07a86c875477880e6e85a5082058f3516"),
    ("verify-tower @tower4O --n 2", 0, "c3159fdfb9bca26a4670055c9c4459ac3bacae792eda64dffde01086612faacf"),
    ("verify-tower @tower5 --n 2", 0, "de17701fb578258bf8b442c68dc34bfb72425d0705805412894bdd874201ed19"),
    ("verify-tower @tower5O --n 2", 0, "2549408b7e04e3c64fb4fdb5cae5652eb5c1e0f141db4263f4017c0e0e1b859c"),
    ("verify-tower @tower6 --n 2", 0, "4129b5b49703dcea59b54dcc78abf5c571d9dc9c92f565b5f82b2a851cc8ed91"),
    ("verify-tower @tetra3 --n 3", 0, "66ced6c471f752bf68022c1a695d67b968f645a93191e4248e3dbdb71d0f7d8f"),
    ("verify-tower @tetra4 --n 2", 0, "2fa28e988217b32403e5c322ac458ab25c218beb66b72aa1d4c22390a8fd56be"),
    # rp2: H1 = Z/2
    ("verify-tower @rp2tower --n 2", 0, "a455592271d3add36b014a9307a4e50e22297447e4e4ea4ed4031b5ae1afba2d"),
    ("verify-tower @rp2tower --n 3", 0, "617522ed0a6af58d9da6c7253c511d0b80a35c0a1525cb3551f57154e44f4c6f"),
    ("verify-tower @random103 --n 2", 0, "606ddaf8cfb2f2af20ea2b6248ff55700523f2a80a4495b92ea0bd7210712d46"),
    # the cylinder's bond is no identity: it fails at n = 2 with a witness
    ("verify-tower @cylinder --n 2", 1, "d7d1c4b509cec574b1e3a0300e531e143d11e43a9226e2fbf11d34a01f3add0c"),
    ("verify-tower @cylinderO --n 1", 0, "ebf68dac6004c651fd8986e4fa89885b152e816690c70202225b4f7210fc0ecd"),
    ("verify-tower @cylinderO --n 2", 1, "aa0ad0b03926d7fee908b778cb067f9ddd8325475286d085078d3cda6b92f50c"),
    # inconclusive: three nerve simplices are fewer than any pulled-back
    # star cover has; a closed tetrahedron piece needs seven collapses
    ("verify-tower @tetra2 --n 3 --budget-nerve 3", 2, "fba27e39d9e30bacea6e9ad1f0de9f875f807972aea52c7ac533df958d153923"),
    ("verify-tower @tetra2 --n 2 --budget-pi1 1", 2, "8748e94f5a1234e1fe7b9d7ad514841034b175e48d2e543cddd96d685a7e94c2"),
    ("restrict @cylinder --level 1 --complex @vertex_u", 0, "93f65ca56c1cef5c2146f7835a6df56109e2fdf7c6815d1ba19642eedde7e996"),
    # maps: the cylinder's midpoint fiber is a circle
    ("check-map @cylmap --n 1", 0, "7632d3f3e908ea28c4eeb99a565397fb4f9e68fbeb7e611e13b1624fc77a15c9"),
    ("check-map @cylmap --n 2", 1, "7437b3d342e3e4c42b282e24913b053a1bbcf171f0b38983bc2be56f59c65d0b"),
    ("check-map @constant_map --n 1", 1, "d6230cf9f8b6d8fdae7664c2466eb53e76caf42d1c7a6aa97a3b973e698f66c0"),
    # complexes and covers
    ("validate @rp2", 0, "42f6363e1fb5cbc65b2e38769054929070cab9624f57256552f32faba1c56be6"),
    ("validate @rp2 --format human", 0, "1451af918465dcce0c74231377a9e707d8551cd15cb8f4a1f440ae0af684f642"),
    (("nerve @rp2_closed", "nerve @rp2_open"), 0, "12fab07abdf1dcca84abbb18d0a4852b332c55b1d1998401f24d649d3a8cff5a"),
    ("mesh @rp2_closed", 0, "7f3bd51115753198d8c911439ea84c7fa27ec6e361c17249d4966ab645208afa"),
    ("mesh @rp2_open", 0, "957c8c47822c35beb2ed11cadcf82295ce8a6969fb5893ff8da3f7f5f8edb18a"),
    ("stars @rp2 --vertex p0", 0, "4c3edb7d5975a7d8c656328f97dd70a7f7a3b63a97f4ae88dc8729343cbbaf7d"),
    # a nested name in either order
    (
        ("""stars @rp2_sd --vertex '["p0","p1"]'""", """stars @rp2_sd --vertex '["p1","p0"]'"""),
        0,
        "cdf794f3c671ad6dc97c7893e66443532d800c9df76b5094546cfa5db81ddf06",
    ),
    ("homology @rp2", 0, "77f259494a45c632a15fb462acdabde59f91c527a551c8f7f9ed947062e38487"),
    ("homology @rp2 --degree 1", 0, "06241d6696404625b1a9ecd8e4ac75e228753fbb3fcf64ea3fde6f1bd7b97d13"),
    ("homology @circle", 0, "ecb4b44649f0f58505699466baf6d479d0db8e91515a1a8a3e80e42f2fb3243d"),
    ("pi1 @rp2", 1, "af75673ac6548aa015a6b475aba2c97972481a1ab11f15cab94ddfd5a1eb5c80"),
    ("pi1 @circle", 1, "19f525269264758009c1450ccb3d498054f0e3ce07dc6cb98745a43b1b6a5625"),
    # refuted at the connectedness check
    ("pi1 @two_pieces", 1, "e58be7870a60f32a52d3483466b9161254c22b646c750b507082036a2d7220af"),
    ("pi1 @s3 --budget-pi1 5", 2, "9c09cbd2bfd8a86dd560bc8724c81f65690cd25946248c80de868b46c3d1b5e5"),
    # lifts: an edge, loops (straight edges and edge paths in closed and
    # open regions) and triangles (two-cells filled)
    ("lift @tower2 --spec @edge2_abc --n 2", 0, "51724f5d10a3ac4c2bcf4089e4e05fb7ba74c7e5a13a47c08f47544c80ddf19a"),
    ("lift @tower3 --spec @loop3_abc --n 2", 0, "612d3dc817ea29c6f71d9f90bc3f7fc2cc8e48c9e02f094aa5ed274590d69ada"),
    ("lift @tower2 --spec @triangle2_abc --n 2", 0, "8b9c355bb4581e321e8eea16b1beaf98b22b6dab81a3ff8f0d855b466df96c8f"),
    ("lift @qfo3 --spec @loop3 --n 2", 0, "b4916e8f0307e5ba47548e3b0f10ef76dde058b79c8beaa11ac395c89965551a"),
    ("lift @qfo3O --spec @loop3 --n 2", 0, "239a760f983a9d146fb22da5c919ec50db80c7f35e99e1427e840243a6a7d650"),
    ("lift @qfo2 --spec @triangle2 --n 2", 0, "858ac9638874ff67a75a0251d288d471b47073e1b1f627cc484ac14e107705e5"),
    ("lift @random35O --spec @fill --n 2", 0, "aea880accfaf6d4c200b247d89ed6cdbd2a613b16a9ee735a09ea7380c9a0089"),
    # no cover element contains some image hull, even after one subdivision
    ("lift @qfo3 --spec @triangle3 --n 2", 2, "9cdabe2aa64355a15e79c091c0e72849900aada6ebba83bde353b3fbe27b38b5"),
    # across the cylinder's bond: an edge lifts at n = 1; at n = 2 the lift
    # names a pulled-back intersection that is not simply connected
    ("lift @cylinder --spec @edge_uv --n 1", 0, "169388cb07dafc279519776f1e9292de992d47ae8608779f7ae8088feed0ea84"),
    ("lift @cylinder --spec @edge_uv --n 2", 2, "8f1a1a21f419ca221538d5ba57f2b5b50333f5e27bb5f7e93e61250eb827ce65"),
]


def split(line: str):
    """(the input name the line's output is, or None; its argv)."""
    name, named, command = line.partition(" = ")
    return (name, shlex.split(command)) if named else (None, shlex.split(line))


def inputs(line: str) -> list:
    """The names of the inputs a command line reads."""
    return [w[1:] for w in split(line)[1] if w.startswith("@")]


def line_id(line: str) -> str:
    return "-".join(w.lstrip("@") for w in split(line)[1] if not w.startswith("--"))


# command line -> (exit code, sha256 of stdout)
PINS = {line: (code, digest) for lines, code, digest in ROWS for line in ((lines,) if isinstance(lines, str) else lines)}

# input name -> the line that prints it
NAMED = {split(line)[0]: line for line in PINS if split(line)[0]}


class Runs:
    """Every line of the table, run at most once, and every input it reads,
    written at most once, under one directory."""

    def __init__(self, directory):
        self.directory = directory
        self.outputs = {}  # line -> (exit code, sha256 of stdout, output file)
        self.paths = {}  # input name -> file

    def run(self, line: str) -> tuple:
        if line not in self.outputs:
            name, argv = split(line)
            argv = [self.path(w[1:]) if w.startswith("@") else w for w in argv]
            stdout = io.StringIO()
            with redirect_stdout(stdout):
                code = cli.main(argv)
            text = stdout.getvalue()
            path = self.directory / ("%d.out" % len(self.outputs))
            path.write_text(text, encoding="utf-8")
            self.outputs[line] = (code, hashlib.sha256(text.encode("utf-8")).hexdigest(), path)
        return self.outputs[line]

    def path(self, name: str) -> str:
        if name not in self.paths:
            if name in NAMED:
                self.paths[name] = str(self.run(NAMED[name])[2])
            else:
                document = DOCUMENTS[name]
                path = self.directory / (name + ".json")
                path.write_text(json.dumps(document if isinstance(document, dict) else document(self.read)))
                self.paths[name] = str(path)
        return self.paths[name]

    def read(self, name: str):
        with open(self.path(name), encoding="utf-8") as handle:
            return json.load(handle)


@pytest.mark.parametrize("line", list(PINS), ids=line_id)
def test_row(golden_runs, line):
    code, digest, _ = golden_runs.run(line)
    assert (code, digest) == PINS[line]


def test_table_is_well_formed():
    # one pin per digest and per test id, and every input is named once
    digests = [digest for _, _, digest in ROWS]
    assert len(set(digests)) == len(digests)
    assert len({line_id(line) for line in PINS}) == len(PINS)
    assert not set(NAMED) & set(DOCUMENTS)
    assert {name for line in PINS for name in inputs(line)} <= set(NAMED) | set(DOCUMENTS)
