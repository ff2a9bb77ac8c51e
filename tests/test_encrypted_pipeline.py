"""Integration: oblivious primitives over encrypted-at-rest public memory.

The §3.1 model assumes probabilistic encryption hides cell contents; here
the primitives actually run over ciphertext-holding arrays, checking both
functional correctness through the encrypt/decrypt boundary and the §3.5
property that dummy write-backs refresh ciphertexts (a swap and a
non-swap are indistinguishable at rest).
"""

from repro.core.entry import Entry, EntryCodec
from repro.memory.encryption import IntCodec, ProbabilisticEncryptor
from repro.memory.public import PublicArray
from repro.memory.tracer import HashSink, ListSink, Tracer
from repro.obliv.bitonic import bitonic_sort
from repro.obliv.compare import attr_key, identity_key, spec
from repro.obliv.routing import route_forward


def _encrypted_array(values, codec):
    return PublicArray(
        values,
        name="ENC",
        tracer=Tracer(ListSink()),
        encryptor=ProbabilisticEncryptor(key=b"integration-key"),
        codec=codec,
    )


def test_bitonic_sort_over_encrypted_ints():
    array = _encrypted_array([5, 3, 8, 1, 9, 2, 7, 0], IntCodec())
    bitonic_sort(array, spec(identity_key()))
    assert array.snapshot() == [0, 1, 2, 3, 5, 7, 8, 9]


def test_sort_refreshes_every_ciphertext():
    values = [3, 1, 2, 0]
    array = _encrypted_array(values, IntCodec())
    before = [array.ciphertext_at(i) for i in range(4)]
    bitonic_sort(array, spec(identity_key()))
    after = [array.ciphertext_at(i) for i in range(4)]
    # Every cell was rewritten at least once, so every ciphertext changed —
    # even for cells whose plaintext ended up unchanged.
    assert all(a != b for a, b in zip(after, before))


def test_dummy_writeback_indistinguishable_from_swap():
    sorted_input = _encrypted_array([1, 2], IntCodec())
    unsorted_input = _encrypted_array([2, 1], IntCodec())
    bitonic_sort(sorted_input, spec(identity_key()))  # pure dummy write-backs
    bitonic_sort(unsorted_input, spec(identity_key()))  # one real swap
    # At rest both arrays look like fresh ciphertexts; lengths equal.
    for i in range(2):
        assert len(sorted_input.ciphertext_at(i)) == len(
            unsorted_input.ciphertext_at(i)
        )
    assert sorted_input.snapshot() == unsorted_input.snapshot() == [1, 2]


def test_trace_hash_is_blind_to_the_cipher():
    # The trace records (op, array, index), never ciphertext bytes: the
    # same sort over plaintext cells, encrypted cells and encrypted cells
    # under another key hashes identically, so a cipher change cannot move
    # a trace hash.
    def sort_hash(**cipher):
        sink = HashSink()
        array = PublicArray([5, 3, 8, 1, 9, 2, 7, 0], tracer=Tracer(sink), **cipher)
        bitonic_sort(array, spec(identity_key()))
        assert array.snapshot() == [0, 1, 2, 3, 5, 7, 8, 9]
        return sink.hexdigest

    plain = sort_hash()
    for key in (b"integration-key", b"another-key"):
        assert plain == sort_hash(
            encryptor=ProbabilisticEncryptor(key=key), codec=IntCodec()
        )
    assert plain == (
        "21f24005985298e92d154018f0f41db6965fb5e7cc250ac377eb5e1de1e0f10b"
    )


def test_routing_over_encrypted_entries():
    codec = EntryCodec()
    entries = [Entry(j=0, d=10 * i, f=t) for i, t in enumerate([1, 3, 4, 7])]
    entries += [Entry.make_null() for _ in range(4)]
    array = _encrypted_array(entries, codec)
    route_forward(array, lambda e: -1 if e.null else e.f, 8)
    snapshot = array.snapshot()
    for target, d in [(1, 0), (3, 10), (4, 20), (7, 30)]:
        assert snapshot[target].d == d and not snapshot[target].null


def test_entry_sort_over_encrypted_cells():
    codec = EntryCodec()
    entries = [Entry(j=j, d=d) for j, d in [(2, 1), (1, 9), (1, 2), (0, 5)]]
    array = _encrypted_array(entries, codec)
    bitonic_sort(array, spec(attr_key("j"), attr_key("d")))
    assert [(e.j, e.d) for e in array.snapshot()] == [(0, 5), (1, 2), (1, 9), (2, 1)]


def test_ciphertexts_constant_width_across_entry_contents():
    codec = EntryCodec()
    small = Entry(j=0, d=0)
    big = Entry(j=2**50, d=-(2**50), a1=999, a2=999, f=123456, ii=654321)
    array = _encrypted_array([small, big], codec)
    assert len(array.ciphertext_at(0)) == len(array.ciphertext_at(1))
