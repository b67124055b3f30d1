"""Golden sha256 hashes of the CLI's exact outputs.

The cases run each exact route below and at its cap: tables and
polynomials at degrees 12 and 20, signs at 12 and 20, the oracle at 6, 8
and 12.  Only outputs made of exact arithmetic are pinned here: coefficient tables,
polynomials and single coefficients (reduced fractions), and the reports
of the formal, oracle and signs suites (exact matches and counts).  The
seeded float reports are pinned apart, per numpy version and pow
fingerprint: the last digit of a float follows numpy's vectorised pow,
which rounds differently on different CPUs and numpy builds, so a float
hash is checked only where pow gives the bits it was recorded with.
Where numpy dispatches past X86_V3 (AVX2), the float reports are also
made in a child python with those features turned off, and checked
against the hashes of the pow path it then takes.  Every command runs in
process through cli.main and writes its output to a file, whose
bytes are hashed; a table run with --cache also pins the cache file, and
a case naming {genus} reads a custom genus from a file written beside it.
The CLI's own help and usage errors run as `python -m zetagenus` in a
fresh interpreter, which pins their stdout and stderr apart, with the
exit code each must give.

A hash that changes means a printed byte changed.  If that is intended,
print the new hashes with

    PYTHONPATH=src python tests/test_golden.py

and say in the change log which outputs moved and why.
"""

import functools
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from test_genus import CUSTOM_COEFFICIENTS

from zetagenus.cli import cli

CASES = {
    "table-L-csv": ["table", "--genus", "L", "--max-k", "12", "--format", "csv", "--cache", "{cache}"],
    "table-L-json": ["table", "--genus", "L", "--max-k", "12", "--format", "json"],
    "table-Ahat-csv": ["table", "--genus", "Ahat", "--max-k", "12", "--format", "csv", "--cache", "{cache}"],
    "table-Ahat-json": ["table", "--genus", "Ahat", "--max-k", "12", "--format", "json"],
    "poly-L-text": ["poly", "--genus", "L", "--k", "12", "--format", "text"],
    "poly-L-latex": ["poly", "--genus", "L", "--k", "12", "--format", "latex"],
    "poly-L-json": ["poly", "--genus", "L", "--k", "12", "--format", "json"],
    "poly-Ahat-text": ["poly", "--genus", "Ahat", "--k", "12", "--format", "text"],
    "poly-Ahat-latex": ["poly", "--genus", "Ahat", "--k", "12", "--format", "latex"],
    "poly-Ahat-json": ["poly", "--genus", "Ahat", "--k", "12", "--format", "json"],
    "coeff-L-12": ["coeff", "--genus", "L", "--partition", "12"],
    "coeff-L-3,2,1": ["coeff", "--genus", "L", "--partition", "3,2,1"],
    "coeff-L-1^8": ["coeff", "--genus", "L", "--partition", "1,1,1,1,1,1,1,1"],
    "coeff-Ahat-4,4,2,1,1": ["coeff", "--genus", "Ahat", "--partition", "4,4,2,1,1"],
    "verify-formal": ["verify", "formal"],
    "verify-formal-r4-n5": ["verify", "formal", "--max-r", "4", "--n", "5"],
    "verify-oracle": ["verify", "oracle"],
    "verify-oracle-k8": ["verify", "oracle", "--k", "8"],
    "verify-signs": ["verify", "signs"],
    "table-L-csv-20": ["table", "--genus", "L", "--max-k", "20", "--format", "csv", "--cache", "{cache}"],
    "table-L-json-20": ["table", "--genus", "L", "--max-k", "20", "--format", "json"],
    "table-Ahat-csv-20": ["table", "--genus", "Ahat", "--max-k", "20", "--format", "csv", "--cache", "{cache}"],
    "table-Ahat-json-20": ["table", "--genus", "Ahat", "--max-k", "20", "--format", "json"],
    "poly-L-text-20": ["poly", "--genus", "L", "--k", "20", "--format", "text"],
    "poly-Ahat-text-20": ["poly", "--genus", "Ahat", "--k", "20", "--format", "text"],
    "verify-oracle-k12": ["verify", "oracle", "--k", "12"],
    "verify-signs-k20": ["verify", "signs", "--k", "20"],
    # a genus read from a file: the only series here that exact.py did not build
    "coeff-custom-5,4,2,1": ["coeff", "--genus", "{genus}", "--partition", "5,4,2,1"],
    "poly-custom-text": ["poly", "--genus", "{genus}", "--k", "12", "--format", "text"],
    "table-custom-csv": ["table", "--genus", "{genus}", "--max-k", "12", "--format", "csv"],
}

# the genus file that {genus} names: a series given to degree 20, with
# negative, zero and non-unit-denominator coefficients
CUSTOM_GENUS = {
    "name": "custom",
    "coefficients": [{"num": str(c.numerator), "den": str(c.denominator)} for c in map(Fraction, CUSTOM_COEFFICIENTS)],
}

# the float reports, at the suites' defaults and two degrees of main and ahat
FLOAT_CASES = {
    "verify-hoffman": ["verify", "hoffman"],
    "verify-multiple-eta": ["verify", "multiple-eta"],
    "verify-positivity": ["verify", "positivity"],
    "verify-main-k8": ["verify", "main", "--k", "8"],
    "verify-ahat-k4": ["verify", "ahat", "--k", "4"],
}

# the help pages and the usage errors of each command; the suite names in
# verify's are read from verify only when a verify command line needs them
TEXT_CASES = {
    "text-help": (["--help"], 0),
    "text-verify-help": (["verify", "--help"], 0),
    "text-verify-no-suite": (["verify"], 2),
    "text-verify-nosuch": (["verify", "nosuch"], 2),
    "text-coeff-help": (["coeff", "--help"], 0),
    "text-poly-help": (["poly", "--help"], 0),
    "text-table-help": (["table", "--help"], 0),
    "text-no-command": ([], 2),
    "text-coeff-no-options": (["coeff"], 2),
    "text-poly-bad-format": (["poly", "--genus", "L", "--k", "3", "--format", "x"], 2),
    "text-verify-bad-integer": (["verify", "main", "--k", "x"], 2),
    "text-nosuch": (["nosuch"], 2),
    "text-coeff-bad-partition": (["coeff", "--genus", "L", "--partition", "x"], 2),
    "text-poly-unknown-option": (["poly", "--genus", "L", "--k", "2", "--nope"], 2),
    "text-unknown-option": (["--nope"], 2),
    "text-poly-help-value": (["poly", "--help=x"], 2),
    "text-poly-missing-value": (["poly", "--genus"], 2),
    "text-coeff-extra-arguments": (["coeff", "--genus", "L", "--partition", "1", "x", "y"], 2),
    "text-dash-dash-help": (["--", "--help"], 2),
    # --opt=value, and the last value of a repeated option wins
    "text-poly-equals-last-wins": (["poly", "--genus=Ahat", "--genus", "L", "--k=2"], 0),
    # an unknown name is reported as typed, with no suggestion
    "text-coef": (["coef"], 2),
    "text-verify-dpth": (["verify", "main", "--dpth", "5"], 2),
    "text-verify-max": (["verify", "main", "--max"], 2),
    "text-poly-short-option": (["poly", "-xyz"], 2),
}

GOLDEN = {
    "table-L-csv": "1771ea2691e29c5aff174ace865da7e4ada180c1cdf045f9b89205e70027e5f3",
    "table-L-csv.cache": "b19a524d831f948b098c48268443a7aa43c5978bf957424ccdbd5718918579de",
    "table-L-json": "0880dfcbeac416fb1bfa69deea8268ccebae1d8e215ec1be141c4fddc74528b0",
    "table-Ahat-csv": "f633095e0b8cc0797c01879e649da946597d0dbe2570df47820b24e80b62edad",
    "table-Ahat-csv.cache": "26e2b0057af905d3d85ffdae2bab4687ee59e6635d21cedf8efc77d4d73bd6a4",
    "table-Ahat-json": "0733b27eebac8417de55de74c517f233e76cc8c6dd02faebbb0bd532884b4f56",
    "poly-L-text": "b351323d4140745dc750149c469b162785a095a8f7f9bba89c0bf9391e3e006d",
    "poly-L-latex": "30babc69639af4683df1f0646b4c950950823afe54f807ee5c80a0085cdf2eb1",
    "poly-L-json": "b33e8b14c1849bbe5b5b733e83f8f5b933d10cfc8f749dd080630c0d21d8fb89",
    "poly-Ahat-text": "cc4978dc82da5d18fbfa09a68a87f802d559b62e6d675c435a78878871bcbece",
    "poly-Ahat-latex": "9a24c841a608d5288a5cfd0096967e4a9974f19147e7ad626e19709b8c16afd9",
    "poly-Ahat-json": "2a8e35908a3f8ea225013994f37cb1f3c7e9e2b7f80ab19b2e84845738aa861b",
    "coeff-L-12": "c7f187842dded129e44da41262d1353743a0fe7bf1859a2920474d6a41a7dc05",
    "coeff-L-3,2,1": "94ba5b82bd3c21d242b64fad3553202ef0f4027f15076acf7863c9e3a9da6c29",
    "coeff-L-1^8": "a06b0a583a6cbe237a1332bd7ed7d2b46132287ad64005a76d36eceb511a4a8f",
    "coeff-Ahat-4,4,2,1,1": "971ccfd37ef2cbb944b7ae91e847bd7a5b868b9220776aee18d6d55cf5fcbbca",
    "verify-formal": "473c6c940b6013a18428e8bd7d1327e4ae41d635687f1930421c0e72f3f19ab2",
    "verify-formal-r4-n5": "dbcfd4b2327c3ddfceea408883393ff45525001d40e56874595ecb8cc6b49855",
    "verify-oracle": "f7430d5831eb1ae0b35c4b7a119125b262bf6ecbbe07dd022eaf81d4a9c1494f",
    "verify-oracle-k8": "32f6cc89a39fc23cc48e1da93a3c0aa2d364c28d1284a3620d9424d34c9ec100",
    "verify-signs": "a01e999919b6d888d5f36e6bc89818d81cfc5126510a854d69982864c59db01c",
    "table-L-csv-20": "efb1fb6b9de41ac806dd7d8d24f722e769004e946c839f9ea495c5526f245676",
    "table-L-csv-20.cache": "f45351356e4aaf4f5fab23062787da572b1b0baef6c5d2baef7c77b5799dc3e2",
    "table-L-json-20": "18ab7d3a5cdf600345a333785719559eb449fd2126765da4fe6d561f1cf99352",
    "table-Ahat-csv-20": "5af2d32fd228c46485af613a4ff64fcc8a30afd21b9842de547582d60e4bc117",
    "table-Ahat-csv-20.cache": "b17f704e98978bb55ca8f6bb49dd3f59adcb1231449fea6c5bd6a436cd2a92ef",
    "table-Ahat-json-20": "d58ea908925b0afbf34b822f38258444d2d3e0a8d02bfc914dcbc21f72677277",
    "poly-L-text-20": "9b4e85eb9fa810ecfca4a1567a1ba0bbfecc627908dd3bffc67eba70065c947f",
    "poly-Ahat-text-20": "83e1904116fac3214354f5e7743999cfafb8863d849efe05b892639f65d4801a",
    "verify-oracle-k12": "fed77f886fc697a3637ac723660c245a01d2f1cef54506d0750401c88dbc2734",
    "verify-signs-k20": "5832a6be363c8124d5828d796a9f84702a47cc3b4e3fa00d9d0f3607a23e8c45",
    "coeff-custom-5,4,2,1": "f7a92b2ee7de41b53e31f32c071b9617943c8332423d4ce3841d4e26e43240d6",
    "poly-custom-text": "500adb9b722f5997cc25bc0b29072ccb38ba84b2c454e9883f102c5ee863ccb1",
    "table-custom-csv": "ad026fa73f2252cc6ffdc52359107b4a6f7bb287e27935cc76caec064bf0238a",
    "text-help.stdout": "e93fcccfd37d5ef874d946f7ce25dbc6d04fc8452115eae7911d36c600d64222",
    "text-help.stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "text-verify-help.stdout": "7045f6855f7268427960c523339caf7411a94f1858d9c946582bf308fac0263f",
    "text-verify-help.stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "text-verify-no-suite.stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "text-verify-no-suite.stderr": "0fb06f528093c9ac54bb2415c30b392d983eb8cfd26ea4a545eec57aa28fc616",
    "text-verify-nosuch.stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "text-verify-nosuch.stderr": "877a0e1e1f53c6ff910305b027ae74711d87201fafebc6170c3f615c008f7485",
    "text-coeff-help.stdout": "15862192787d3346e60dc669c4945159053298e56504234b9ea99f3fa5f97a0b",
    "text-coeff-help.stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "text-poly-help.stdout": "7031e929b5923394e34f9c416f28949cd1d9d158eb43b7071da2f4cd1c304d64",
    "text-poly-help.stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "text-table-help.stdout": "9e4f430019bb44db081b6c89d74eaa8bbbcf4de77614863859200a06b52ae0f1",
    "text-table-help.stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "text-no-command.stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "text-no-command.stderr": "e93fcccfd37d5ef874d946f7ce25dbc6d04fc8452115eae7911d36c600d64222",
    "text-coeff-no-options.stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "text-coeff-no-options.stderr": "f36828bd55bd5ba603530d6db492be2acbcee1f498f487b94980e359f4aeadd0",
    "text-poly-bad-format.stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "text-poly-bad-format.stderr": "c64b317829811e2f73720ae6e4e649e4c8b97b30d8c755a6d48fefecf7c69192",
    "text-verify-bad-integer.stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "text-verify-bad-integer.stderr": "38c24a865e0d18d8c74783a60bb51f4688cc48503710f252f2a405b3e276d0c1",
    "text-nosuch.stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "text-nosuch.stderr": "1fcf10f97f43086a21bc8b8a4227374fb04dd0979868c4b18d37d5ecb2a08d5b",
    "text-coeff-bad-partition.stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "text-coeff-bad-partition.stderr": "27b47b14f7dc11c6466a3920824ae673a7e7923320c47a5b7199300ef5183a08",
    "text-poly-unknown-option.stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "text-poly-unknown-option.stderr": "44bbdac2ea927173be5e4fef2740b420a0a7cbf5cd46c4af2afad6337e88d1ea",
    "text-unknown-option.stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "text-unknown-option.stderr": "07dabc5605e3e0a4054dbbb664f08cb063d89bf60b205cad5bfc4d5252b6a7ae",
    "text-poly-help-value.stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "text-poly-help-value.stderr": "49a62942bbca36da96a7705089aa315a2f3fafc0d5487ee40fff41e8d10ba8d9",
    "text-poly-missing-value.stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "text-poly-missing-value.stderr": "71c73b69306d177b4f1874a86620d120380f8df678edf3a6a2e47dcd92cc8b49",
    "text-coeff-extra-arguments.stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "text-coeff-extra-arguments.stderr": "bd26a7065b2c7a593b1d2f5036c9bfffbafa2cf2257304fe6a5fe5fd1dc4b899",
    "text-dash-dash-help.stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "text-dash-dash-help.stderr": "df4cc28be90a835f52792f1f54383a3dbc47773d604e438108281f3b9c96d6bf",
    "text-poly-equals-last-wins.stdout": "aaea7569773630dae18e4453c2fc3334387368822b4b1a2bfa9f7bcfcd0c29a7",
    "text-poly-equals-last-wins.stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "text-coef.stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "text-coef.stderr": "99e38a913e7ef31d01094ba629cc3ad31ae85f9c319db75227ff0923f95b190d",
    "text-verify-dpth.stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "text-verify-dpth.stderr": "cca206e107e91460954f83fb89c5db8b2e5fa98aee0ddbcdb93e70bb02b84c3c",
    "text-verify-max.stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "text-verify-max.stderr": "60617f58b4a421e8c0e6b53d537014d7c4dec608c92700b917cde3e2d78cd28a",
    "text-poly-short-option.stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "text-poly-short-option.stderr": "7648091f67254a0a8677256f453b12c6caea67bd396d3fa9081c6f12058583be",
}


@functools.lru_cache(maxsize=None)
def _fingerprint() -> str:
    """numpy's version and a sha256 of the bits of what the sums take from
    numpy: its pow, as the kernels call it (an index range to a negative
    float power), and its pairwise sum of each power block.  The probe
    covers the suites' exponents, 1.05 to 40 (main's largest is 2 * 20),
    with main's even integers, on the first indices and on the last ones
    below the default ahat depth.  Every final sum is rounded exactly from
    these terms in a fixed order, so two hosts with the same fingerprint
    print the same float reports."""
    import numpy
    digest = hashlib.sha256()
    for s in [1.05 + i * (40.0 - 1.05) / 47 for i in range(48)] + [float(j) for j in range(2, 41, 2)]:
        for lo, hi in [(0, 2**15), (2_000_000 - 2**14, 2_000_000)]:
            powers = numpy.arange(lo + 1, hi + 1, dtype=numpy.float64) ** (-s)
            digest.update(powers.tobytes() + numpy.float64(powers.sum()).tobytes())
    return f"numpy {numpy.__version__} pow {digest.hexdigest()}"


def _dispatch() -> str:
    """numpy's version and the SIMD features it dispatches to on this CPU,
    the "found" extensions numpy.show_runtime lists."""
    import numpy
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    return " ".join([f"numpy {numpy.__version__}", *(f for f in umath.__cpu_dispatch__ if umath.__cpu_features__.get(f))])


def _above_x86_v3() -> list[str]:
    """The features _dispatch lists past X86_V3, which NPY_DISABLE_CPU_FEATURES can turn off."""
    features = _dispatch().split()[2:]
    return features[features.index("X86_V3") + 1:] if "X86_V3" in features else []


@functools.lru_cache(maxsize=None)
def _x86_v3_floats() -> dict:
    """The _fingerprint, _dispatch and float report hashes of a child python
    that numpy runs at X86_V3, with every feature past it turned off."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src), "NPY_DISABLE_CPU_FEATURES": " ".join(_above_x86_v3())}
    result = subprocess.run([sys.executable, __file__, "--floats"], capture_output=True, env=env)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


def _float_hashes() -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        hashes = {key: digest for case in FLOAT_CASES for key, digest in _hashes(case, Path(tmp)).items()}
    return {"fingerprint": _fingerprint(), "dispatch": _dispatch(), "hashes": hashes}


# each float report's hash, by the _fingerprint of the host it was recorded on;
# its _dispatch there: numpy 2.4.6 X86_V3 X86_V4 AVX512_ICL AVX512_SPR, and
# for the second key the same with X86_V4 AVX512_ICL AVX512_SPR turned off
FLOAT_GOLDEN = {
    "numpy 2.4.6 pow e39d1eb03777b4756b4579fd69575ad700fc500424d407ec41b9a647b3847e61": {
        "verify-hoffman": "43b129f9b32bb13b81a065b5cff81d6fb7908e2d1ae65500d1e56702333716b1",
        "verify-multiple-eta": "829f37b2f147f3cc5f4d127481e6de0e1a6e619ab12a09980e1c6f51c8fea2a9",
        "verify-positivity": "8e091cea2dfcb330cfbef5678efa4ee0725aa2026ce0c2d4e6ec39c72aec2c69",
        "verify-main-k8": "922e6e9752147878d88f19d01b6a2b29ce49cbf03113f61500beb2b48ecd59a4",
        "verify-ahat-k4": "527cf10691d97decfad86d7a0db0f04bb9ec29780cf8f77e2940e73296f086a8",
    },
    "numpy 2.4.6 pow 2bec8b77d033035854f9f58a678adbdb09f11e737ea8b920559e24f564f5a09c": {
        "verify-hoffman": "61ee35a917dc640387854249ed1daaed249a703ad45267c6611bdc7f4bb9ccec",
        "verify-multiple-eta": "f78c9dac51f6e12548530cced9537fc946dd4dc39671e9aa0ae8ac5c39f48d65",
        "verify-positivity": "3739f2b909ccf9f2c0bf79dadb1f3f8b221a2cb26389e71713c8764b2527d4b7",
        "verify-main-k8": "922e6e9752147878d88f19d01b6a2b29ce49cbf03113f61500beb2b48ecd59a4",
        "verify-ahat-k4": "527cf10691d97decfad86d7a0db0f04bb9ec29780cf8f77e2940e73296f086a8",
    },
}


def _hashes(name: str, workdir: Path) -> dict[str, str]:
    """Run one case and return the sha256 of each file it writes."""
    out, cache, genus = workdir / f"{name}.out", workdir / f"{name}.cache", workdir / f"{name}.genus.json"
    genus.write_text(json.dumps(CUSTOM_GENUS))
    args = [a.format(cache=cache, genus=genus) for a in {**CASES, **FLOAT_CASES}[name]] + ["--out", str(out)]
    with redirect_stdout(io.StringIO()) as output, redirect_stderr(output):
        code = cli.main(args)
    assert code == 0, output.getvalue()
    files = {name: out, f"{name}.cache": cache}
    return {key: hashlib.sha256(path.read_bytes()).hexdigest() for key, path in files.items() if path.exists()}


def _text_hashes(name: str) -> dict[str, str]:
    """Run one text case and return the sha256 of its stdout and stderr."""
    args, code = TEXT_CASES[name]
    src = Path(__file__).resolve().parents[1] / "src"
    result = subprocess.run(
        [sys.executable, "-m", "zetagenus", *args],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert result.returncode == code, result.stderr
    streams = {f"{name}.stdout": result.stdout, f"{name}.stderr": result.stderr}
    return {key: hashlib.sha256(data).hexdigest() for key, data in streams.items()}


@pytest.mark.parametrize("name", list(TEXT_CASES))
def test_cli_text_matches_its_golden_hashes(name):
    got = _text_hashes(name)
    assert got == {key: GOLDEN[key] for key in got}


@pytest.mark.parametrize("name", list(CASES))
def test_exact_outputs_match_their_golden_hashes(name, tmp_path):
    got = _hashes(name, tmp_path)
    assert got == {key: GOLDEN[key] for key in got}
    assert set(got) == {key for key in GOLDEN if key.split(".")[0] == name}


@pytest.mark.parametrize("name", list(FLOAT_CASES))
def test_float_reports_match_their_golden_hashes_on_their_dispatch(name, tmp_path):
    golden = FLOAT_GOLDEN.get(_fingerprint())
    if golden is None:
        pytest.skip(f"no float hashes recorded for {_fingerprint()} ({_dispatch()})")
    assert _hashes(name, tmp_path) == {name: golden[name]}


@pytest.mark.parametrize("name", list(FLOAT_CASES))
def test_float_reports_match_their_golden_hashes_at_x86_v3(name):
    # the AVX2 path of numpy's pow, where this CPU has more; only the child's
    # environment changes
    above = _above_x86_v3()
    if not above:
        pytest.skip(f"numpy dispatches nothing past X86_V3 here ({_dispatch()})")
    child = _x86_v3_floats()
    assert not set(above) & set(child["dispatch"].split())
    golden = FLOAT_GOLDEN.get(child["fingerprint"])
    if golden is None:
        pytest.skip(f"no float hashes recorded for {child['fingerprint']} ({child['dispatch']})")
    assert child["hashes"][name] == golden[name]


if __name__ == "__main__":
    if sys.argv[1:] == ["--floats"]:  # as _x86_v3_floats runs it
        print(json.dumps(_float_hashes()))
        sys.exit()
    with tempfile.TemporaryDirectory() as tmp:
        for case in CASES:
            for key, digest in _hashes(case, Path(tmp)).items():
                print(f'    "{key}": "{digest}",', file=sys.stdout)
    for case in TEXT_CASES:
        for key, digest in _text_hashes(case).items():
            print(f'    "{key}": "{digest}",', file=sys.stdout)
    for floats in [_float_hashes()] + ([_x86_v3_floats()] if _above_x86_v3() else []):
        print(f"    # {floats['dispatch']}")
        print(f'    "{floats["fingerprint"]}": {{')
        for key, digest in floats["hashes"].items():
            print(f'        "{key}": "{digest}",', file=sys.stdout)
        print("    },")
