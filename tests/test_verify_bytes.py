"""The exact bytes `lmss verify` prints, pinned by sha256.

One seeded sweep per theorem id covers the holding reports, notes
included; one planted failing report per theorem id (and per P2_ZYKOV
branch) covers the witness bytes, which no holding report prints. Each
failure is planted by editing the family ``psi`` returns for the graphs of
one vertex count, as the fault tests in test_theorems.py do.
"""

import hashlib

import pytest

from lmss import theorems
from lmss.cli import main
from lmss.stable import SetFamily
from lmss.theorems import THEOREM_IDS

SWEEP_FLAGS = ["--sweep", "10", "--count", "5", "--seed", "7"]

# theorem id -> (explicit specs, vertex count whose family is edited,
# masks dropped from it, masks added to it)
PLANTED = {
    # a non-stable pair joins the family of K2
    "T1_NT": (["gen:complete:2"], 2, (), (0b11,)),
    # without singletons the tree family is not accessible
    "T2_TREE": (["gen:path:4"], 4, (0b1, 0b10, 0b100, 0b1000), ()),
    "P1_UNION": (["gen:path:3", "gen:path:3"], 6, (0b100000, 0b101), ()),
    # a singleton falls below max2 of the part alphas
    "L4_ZYKOV_BOUND": (["gen:path:3", "gen:path:3"], 6, (), (0b1,)),
    # complete branch: the sum K4 loses a singleton
    "P2_ZYKOV": (["gen:complete:2", "gen:complete:2"], 4, (0b1,), ()),
    "L3_CORONA": (["gen:path:2", "gen:complete:1", "gen:complete:2"], 5, (0b10001, 0b01001), ()),
    # a P3 satellite's family {0,2} loses its singletons, so it is not
    # accessible while the corona's family still is a greedoid
    "T_CORONA": (["gen:path:2", "gen:complete:1", "gen:path:3"], 3, (0b1, 0b100), ()),
    "COR_CORONA": (["gen:path:2", "gen:path:3"], 3, (0b1, 0b100), ()),
    "C4_COMPOSITION_SPECIALIZE": (["gen:path:3", "gen:path:3"], 6, (0b100000, 0b101), ()),
}
# general branch: a part family loses its singletons, so the conditions fail
# while the sum's family is still a greedoid
P2_GENERAL = (["gen:path:3", "gen:complete:2"], 3, (0b1, 0b100), ())

DIGESTS = {
    "sweep-T1_NT/json": "c50405f93921480ee12287f6c562fa4c3ea8bb3421522f3c903a217dfc097c8d",
    "sweep-T1_NT/plain": "d1a146050c8f8292f83d7d152caffda7f84a63e0fd36c4ac0cda0896b7e97108",
    "planted-T1_NT/json": "c6817db5cfc336499bb717dd3f7482357cc567da7685f4821dd86d4fef65ca5e",
    "planted-T1_NT/plain": "881b723ca0e005de982ed449b18f26175174fdf02631c94fe08db7cb0ab5bead",
    "sweep-T2_TREE/json": "562a36da3e759e52bb97d4729eb5e553139b207cb5c31e3c0a4ecb1ea50cf49b",
    "sweep-T2_TREE/plain": "5a97f44466262dabbb0360047655540767466bbb9e7835d7230ee4dbac4ffc92",
    "planted-T2_TREE/json": "df512204e9d4b07d587d664ad825efac167a531a607d5a83308acaa0db26ecc1",
    "planted-T2_TREE/plain": "297e11884e30de7684aa7965b87297d875cfbb8ddad7e5e1ec023b716081f65c",
    "sweep-P1_UNION/json": "fbc116148159e62b62529f3a1e14bf5ddcaa8b3d55b6f7cd7688a237731046d8",
    "sweep-P1_UNION/plain": "3cded2d02bf6aab8b6bb1d9b8fbeca22876718074eb10c5ae9e89e140cebc3c9",
    "planted-P1_UNION/json": "c343e4fca3a6574f6f24455d30a5198146c0cc21764428fd25e88bfabb77c95e",
    "planted-P1_UNION/plain": "e2df45d28f345d6852f87b7b33c02e2ee077df7a0bca4addf419e237dc78dd87",
    "sweep-L4_ZYKOV_BOUND/json": "16e2cf2ba332b488fb35a55009a6d4c7353b7197e55ec1ab86ed8bcec5cac22a",
    "sweep-L4_ZYKOV_BOUND/plain": "0d8521515c3c7e89b7382c92a3c447070386031f3df20563478a1ac1c7160dfd",
    "planted-L4_ZYKOV_BOUND/json": "95055326ce3812c3459c2d9487d2ac690aec6b28ca1ecfcc423cb92ffe55ba33",
    "planted-L4_ZYKOV_BOUND/plain": "08b02a884a0c273bb517df8a888e6dfac2352cd6ec38cefb2c3d6967494014ed",
    "sweep-P2_ZYKOV/json": "5e8e183177859f2eacdc208f8068f16ffc497a52c49859f781cf9ce2ec199c21",
    "sweep-P2_ZYKOV/plain": "90ec37c819cdc3968ab64245017ff699f38d5413634e5477f664537ed51eba0f",
    "planted-P2_ZYKOV/json": "d3d2cd197c71639d62bd8183eb9b858f7542cd54583ab540e23711a0c23205fb",
    "planted-P2_ZYKOV/plain": "f749babacc97dbd15d758a547909957e4130fea19fea4e47f0bc63b0be18e3a0",
    "sweep-L3_CORONA/json": "94a556e92be1c60392528a13d840b7230528d5c7711c44d64239ca5ead90ed7f",
    "sweep-L3_CORONA/plain": "dd729888a6b8c2b57d2ed50a0e8358b0d8a439b54f3186911a17f59910823a37",
    "planted-L3_CORONA/json": "cdd36b64df77b36e10672832d56979bd743c20516cef0935793a1919bd1af3e1",
    "planted-L3_CORONA/plain": "d297616d8c0c33c0771e96dd1e73a4215ec691620626ad2420253f5eaee13329",
    "sweep-T_CORONA/json": "fe2588acb33255b4bbaf0817b0a815f3a431c3a3e8e495c7dbdae9b50e5fcd2e",
    "sweep-T_CORONA/plain": "b64882142c2852be414d31dc3346c36b97f1cd72ad7a436cd806c7c50d3f278e",
    "planted-T_CORONA/json": "5758af361fa93c5eed4cb85fe192be2a1876933e7a4a078fc8f73723b52c0697",
    "planted-T_CORONA/plain": "692b11753417b0559f78c34d05bcc0538b3e1be85229a55a0aa89e19a5d9c303",
    "sweep-COR_CORONA/json": "3d383723b05de8641500dd1fa4b95b019bd2c3b9db6bf37511596ce559dd80d6",
    "sweep-COR_CORONA/plain": "b99bab87ebfc08743b750b7e5dc8a46dd621ac954ae7d40389a9ff189f766e7c",
    "planted-COR_CORONA/json": "e277f7d63951f9e0c09fb140318ae06c58d49845b7d7faab82b9e2cd25f05af8",
    "planted-COR_CORONA/plain": "54af0a263fecc3397015e5335c759783932c302333e440f9e90e3d1764b841fd",
    "sweep-C4_COMPOSITION_SPECIALIZE/json": "994b4ae90aa9068ab1956ad6b1c22cc93985feee8dd7638e729635edc666d29c",
    "sweep-C4_COMPOSITION_SPECIALIZE/plain": "5cdf8df12ec46e5d323788ab8c05b99a8fec35bd87daab72328b7734d6367afc",
    "planted-C4_COMPOSITION_SPECIALIZE/json": "61da9f948fdd463bf75a4d6a30aa6fde843e91ea6e1c5647aa8d743e5e885e66",
    "planted-C4_COMPOSITION_SPECIALIZE/plain": "ce9c350a52197ab3fe294278f4e16067cf4e69bc090183a01975d8edef2c2de8",
    "planted-P2_ZYKOV-general/json": "04fcc5c85857a7b1ae259793243a2d439054afbcd4159221dfa1084ee9026f63",
    "planted-P2_ZYKOV-general/plain": "3f5fe3bb9fc86a9c8a17bf2bf8b0b1851f314a433d9f83b0d0f5b343f711d827",
}


def _plant(monkeypatch, n, drop, add):
    real_psi = theorems.psi

    def planted_psi(g):
        fam = real_psi(g)
        if g.n != n:
            return fam
        return SetFamily(fam.universe, [m for m in fam if m not in drop] + list(add))

    monkeypatch.setattr(theorems, "psi", planted_psi)


def _cases():
    for theorem in THEOREM_IDS:
        yield f"sweep-{theorem}", [theorem, *SWEEP_FLAGS], None
        yield f"planted-{theorem}", [theorem, *PLANTED[theorem][0]], PLANTED[theorem][1:]
    yield "planted-P2_ZYKOV-general", ["P2_ZYKOV", *P2_GENERAL[0]], P2_GENERAL[1:]


CASES = list(_cases())


@pytest.mark.parametrize("fmt", ["json", "plain"])
@pytest.mark.parametrize("name, argv, fault", CASES, ids=[c[0] for c in CASES])
def test_verify_output_bytes_are_pinned(capsys, monkeypatch, name, argv, fault, fmt):
    if fault is not None:
        _plant(monkeypatch, *fault)
    code = main(["verify", *argv, "--format", fmt])
    assert code == (0 if fault is None else 1)
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == DIGESTS[f"{name}/{fmt}"]
