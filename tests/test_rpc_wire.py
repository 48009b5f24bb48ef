"""The RPC backend's `eth_callMany` traffic, pinned on the wire.

`TestCallManyAnswers` pins the outcome each answer to a bundle decodes
to: error items, balance words well formed or not, swap slots (a
success with no value, whatever data the swap returned), and answers of
the wrong shape. A hypothesis test compares random answers against
`reference_slot_outcome`, the decoding rule spelled out slot by slot,
and `TestRepeatedAnswers` checks that an answer served from a
template's kept answer decodes the same. `TestEmptySwapReturns` scans
an honest taxed pool whose node returns no swap data, as the
fee-on-transfer router functions do.

`TestRequestStream` pins every request the backend sends while it scans
the corpus whose sim verdicts `test_sim_verdicts.py` pins, at intervals
1, 3 and 7: methods, params and POST counts, hashed into one digest,
beside the POST count and the request count of each method, which show
what a re-pin moved. Re-record it only for a change that is meant to
alter the requests.
"""

import copy
import hashlib
import json
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import run_simple
from fake_node import FakeNode
from trapscan.chainview import (
    BackendUnavailable,
    BalanceOfCall,
    CallOutcome,
    CallStatus,
    SwapExactInCall,
)
from trapscan.core import Address
from trapscan.corpus import gen_corpus
from trapscan.mockchain import Honest, load_scenario, run_attack_script
from trapscan.pipeline import ScanSettings, scan_pool
from trapscan.rpcbackend import EndpointConfig, RpcChainView, abi
from trapscan.rpcbackend import backend as rpc_backend
from trapscan.rpcbackend.abi import DecodeError
from trapscan.rpcbackend.client import RpcError

PROBE = Address.derive("probe")


def word(value: int) -> str:
    return abi.enc_uint(value).hex()


def swap_return(*amounts: int, offset: int = 32) -> str:
    return "0x" + word(offset) + word(len(amounts)) + "".join(map(word, amounts))


def success(value):
    return CallOutcome(status=CallStatus.SUCCESS, return_value=value)


def revert(reason):
    return CallOutcome(status=CallStatus.REVERT, revert_reason=reason)


# ----------------------------------------------------------------------
# The decoding rule, slot by slot: one call slot's outcome from its answer
# items (the approve and the swap of a swap slot).


def reference_error_text(err) -> str:
    if isinstance(err, dict):
        return str(err.get("message") or err.get("data") or err)
    return str(err)


def reference_balance_value(answer):
    try:
        if isinstance(answer, Exception):
            raise answer
        return abi.dec_uint(abi.hex_to_bytes(answer))
    except (RpcError, DecodeError):
        return None


def reference_slot_outcome(chunk: list, kind: str) -> CallOutcome:
    if kind == "swap":
        approve, swap = chunk
        if "error" in approve:
            return revert(f"approve failed: {reference_error_text(approve['error'])}")
        item = swap
    else:
        item = chunk[0]
    if "error" in item:
        return revert(reference_error_text(item["error"]))
    if kind == "swap":
        return success(None)  # whatever the swap returned
    value = item.get("value", "0x")
    balance = reference_balance_value(value)
    if balance is None:
        return revert(f"bad balance payload: {value!r}")
    return success(balance)


def reference_outcomes(results: list) -> list[CallOutcome]:
    """The outcomes of `Canned.calls`: balance, approve + swap, balance."""
    return [
        reference_slot_outcome(results[0:1], "balance"),
        reference_slot_outcome(results[1:3], "swap"),
        reference_slot_outcome(results[3:4], "balance"),
    ]


class Canned:
    """A view over the fake node whose every `eth_callMany` is answered
    with `result` instead of the node's answer, or with the error object
    `error` when one is set."""

    def __init__(self):
        self.trace = run_simple(Honest(Fraction(0)))
        self.node = FakeNode(chain=self.trace.chain)
        self.rpc = RpcChainView(EndpointConfig(url="fake://", retries=0), transport=self)
        self.result = self.error = None
        self.calls = (
            BalanceOfCall(caller=PROBE, token=self.trace.base_token, holder=PROBE),
            SwapExactInCall(
                caller=PROBE, pool=self.trace.pool.pool, token_in=self.trace.base_token,
                token_out=self.trace.trap_token, amount_in=10**6, recipient=PROBE,
            ),
            BalanceOfCall(caller=PROBE, token=self.trace.trap_token, holder=PROBE),
        )

    def __call__(self, payload):
        response = self.node(payload)
        for request, answer in zip(payload, response):
            if request["method"] == "eth_callMany":
                if self.error is None:
                    answer["result"] = self.result
                else:
                    del answer["result"]
                    answer["error"] = self.error
        return response

    def outcomes(self, result, error=None):
        """The bundle's outcomes, or the exception that took their place."""
        self.result, self.error = result, error
        [answer] = self.rpc.simulate_bundles(self.trace.chain.head(), [(self.calls, None)])
        return answer

    def slots(self, first=None, approve=None, swap=None, last=None):
        """The outcomes of results whose items default to a success."""
        return self.outcomes([[
            first or {"value": "0x" + word(7)},
            approve or {"value": "0x" + word(1)},
            swap or {"value": swap_return(0, 5)},
            last or {"value": "0x" + word(9)},
        ]])


@pytest.fixture(scope="module")
def canned():
    return Canned()


class TestCallManyAnswers:
    def test_well_formed_answer(self, canned):
        assert canned.slots() == [success(7), success(None), success(9)]

    def test_error_item(self, canned):
        got = canned.slots(swap={"error": {"code": 3, "message": "execution reverted: tax"}})
        assert got[1] == revert("execution reverted: tax")
        got = canned.slots(first={"error": {"code": 3, "data": "0x08c379a0"}})
        assert got[0] == revert("0x08c379a0")
        got = canned.slots(last={"error": "node says no"})
        assert got[2] == revert("node says no")

    def test_approve_error(self, canned):
        got = canned.slots(approve={"error": {"message": "denied"}}, swap={"error": {"message": "x"}})
        assert got == [success(7), revert("approve failed: denied"), success(9)]

    @pytest.mark.parametrize("value, expected", [
        ("0xzz", revert("bad balance payload: '0xzz'")),
        ("0x123", revert("bad balance payload: '0x123'")),  # odd length, two bytes once padded
        ("0x" + "f" * 63, success(int("f" * 63, 16))),  # odd length, one word once padded
        ("0x" + "00" * 31, revert(f"bad balance payload: {'0x' + '00' * 31!r}")),  # short
        ("0x" + word(5) + word(6), success(5)),  # longer than one word: the first
        ("0x" + "AB" * 32, success(int("ab" * 32, 16))),  # upper-case hex
        ("0X" + word(5), revert(f"bad balance payload: {'0X' + word(5)!r}")),
        ("0x" + "0" * 62 + "_1", revert(f"bad balance payload: {'0x' + '0' * 62 + '_1'!r}")),
        ("0x" + "00" * 30 + " 00 05", success(5)),  # whitespace between bytes is skipped
        ("0x", revert("bad balance payload: '0x'")),
        (5, revert("bad balance payload: 5")),
        (None, revert("bad balance payload: None")),
    ])
    def test_balance_value(self, canned, value, expected):
        assert canned.slots(first={"value": value})[0] == expected

    def test_balance_without_a_value(self, canned):
        assert canned.slots(first={"id": 1})[0] == revert("bad balance payload: '0x'")

    @pytest.mark.parametrize("value, expected", [
        ("0x", success(None)),  # the fee-on-transfer router functions return nothing
        ("0x" + word(64) + word(0xdead) + word(1) + word(3), success(None)),  # a gap
        (swap_return(3, 4, offset=33), success(None)),  # a misaligned offset
        (swap_return(3, 4)[:-64], success(None)),  # shorter than its length
        (swap_return(), success(None)),  # an empty array
        (swap_return(3, 4) + word(8), success(None)),  # trailing words
        (swap_return(3, 4).upper().replace("0X", "0x"), success(None)),
        ("0xzz", success(None)),
        (5, success(None)),
        (None, success(None)),
    ])
    def test_swap_value(self, canned, value, expected):
        """A swap that went through is a success with no value, whatever
        data it returned."""
        assert canned.slots(swap={"value": value})[1] == expected

    def test_swap_without_a_value(self, canned):
        assert canned.slots(swap={"id": 1})[1] == success(None)

    def test_wrong_result_count(self, canned):
        got = canned.outcomes([[{"value": "0x" + word(1)}] * 3])
        assert isinstance(got, BackendUnavailable)
        assert str(got) == "callMany returned 3 results, expected 4"
        got = canned.outcomes([{"value": "0x"}])
        assert isinstance(got, BackendUnavailable)
        assert str(got) == "callMany returned ? results, expected 4"

    @pytest.mark.parametrize("result", [{"value": "0x"}, [], "0x", None])
    def test_response_not_a_list(self, canned, result):
        got = canned.outcomes(result)
        assert isinstance(got, BackendUnavailable)
        assert str(got) == f"unexpected callMany response: {result!r}"

    @pytest.mark.parametrize("items", [["0x" + word(1)] * 4, [1, 2, 3, 4]],
                             ids=["strings", "ints"])
    def test_non_object_items_fail_only_their_bundle(self, canned, items):
        """A bundle answered with items that are not objects gets a
        BackendUnavailable; the well-formed bundle of the same POST keeps
        its outcomes."""
        block = canned.trace.chain.head()
        [expected] = RpcChainView(
            EndpointConfig(url="fake://", retries=0), transport=canned.node
        ).simulate_bundles(block, [(canned.calls, None)])

        def transport(payload):
            response = canned.node(payload)
            if payload[0]["method"] == "eth_callMany":
                assert len(payload) == 2  # both bundles in one POST
                response[0]["result"] = [items]
            return response

        rpc = RpcChainView(EndpointConfig(url="fake://", retries=0), transport=transport)
        bad, good = rpc.simulate_bundles(block, [(canned.calls, None)] * 2)
        assert isinstance(bad, BackendUnavailable)
        assert isinstance(expected, list) and good == expected

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_answers_decode_like_the_reference(self, canned, data):
        results = data.draw(RESULTS)
        assert canned.outcomes([results]) == reference_outcomes(results)


_HEX_TEXT = st.text(alphabet="0123456789abcdefABCDEF_ ", max_size=200)
_WORDS = st.lists(st.integers(0, 2**256 - 1), max_size=4)
_VALUE = st.one_of(
    st.integers(0, 2**256 - 1).map(lambda n: "0x" + word(n)),
    _WORDS.map(lambda amounts: swap_return(*amounts)),
    st.builds(lambda offset, amounts: swap_return(*amounts, offset=offset),
              st.integers(0, 200), _WORDS),
    _HEX_TEXT.map(lambda body: "0x" + body),
    st.text(max_size=80),
    st.none(),
    st.integers(),
)
_ERROR = st.one_of(
    st.builds(lambda m: {"code": 3, "message": m}, st.text(max_size=20)),
    st.builds(lambda d: {"data": d}, st.text(max_size=20)),
    st.text(max_size=20),
    st.just({}),
)
_ITEM = st.one_of(
    st.builds(lambda v: {"value": v}, _VALUE),
    st.builds(lambda e: {"error": e}, _ERROR),
    st.just({}),
)
# The result items of one answer to `Canned.calls`.
RESULTS = st.lists(_ITEM, min_size=4, max_size=4)
WELL_FORMED = [{"value": "0x" + word(7)}, {"value": "0x" + word(1)},
               {"value": swap_return(0, 5)}, {"value": "0x" + word(9)}]


def count_error_texts(monkeypatch) -> list:
    """Spy on the backend's error-text decoder; returns the list of the
    error objects it was given."""
    seen = []
    decode = rpc_backend._error_text
    monkeypatch.setattr(rpc_backend, "_error_text", lambda err: seen.append(err) or decode(err))
    return seen


class TestRepeatedAnswers:
    """A template keeps its last answer whose outcomes were read from
    strings alone, and an equal answer gets its outcomes again."""

    def test_a_repeat_gets_the_kept_outcomes(self, canned):
        first = canned.outcomes([WELL_FORMED])
        again = canned.outcomes([copy.deepcopy(WELL_FORMED)])
        assert again == first == [success(7), success(None), success(9)]
        assert all(a is b for a, b in zip(again, first))
        assert again is not first

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_answers_after_answers_decode_like_the_reference(self, canned, data):
        """Each of a run of answers, some repeating the one before, decodes
        as the reference does."""
        results = data.draw(RESULTS)
        for _ in range(3):
            assert canned.outcomes([results]) == reference_outcomes(results)
            if not data.draw(st.booleans()):
                results = data.draw(RESULTS)
            results = copy.deepcopy(results)

    @pytest.mark.parametrize("first, then, expected", [
        ({"error": {"message": 1}}, {"error": {"message": True}}, revert("True")),
        ({"value": 5}, {"value": 5.0}, revert("bad balance payload: 5.0")),
        ({"error": {"code": 3, "data": ""}}, {"error": {"data": "", "code": 3}},
         revert("{'data': '', 'code': 3}")),
    ])
    def test_equal_answers_that_decode_apart_are_decoded(self, canned, first, then, expected):
        """Answers equal as JSON values can still word a revert apart; one
        whose slot is not read straight from the hex is never kept."""
        assert first == then
        canned.outcomes([[first, *WELL_FORMED[1:]]])
        assert canned.outcomes([[then, *WELL_FORMED[1:]]])[0] == expected

    def test_a_repeated_reverted_sell_is_decoded_once(self, canned, monkeypatch):
        """An error item whose text is a string is kept like a balance
        word: a reverted sell that repeats is served from the kept answer."""
        texts = count_error_texts(monkeypatch)
        canned.outcomes([WELL_FORMED])
        reverting = [*WELL_FORMED[:2], {"error": {"code": 3, "message": "execution reverted: tax"}},
                     WELL_FORMED[3]]
        first = canned.outcomes([reverting])
        again = canned.outcomes([copy.deepcopy(reverting)])
        assert again == first == [success(7), revert("execution reverted: tax"), success(9)]
        assert all(a is b for a, b in zip(again, first))
        assert len(texts) == 1

    def test_a_text_from_a_non_string_is_decoded_each_time(self, canned, monkeypatch):
        """`{"message": 1}` and `{"message": True}` are equal but word their
        revert apart, so neither answer is kept."""
        texts = count_error_texts(monkeypatch)
        canned.outcomes([WELL_FORMED])
        got = [canned.outcomes([[{"error": {"message": message}}, *WELL_FORMED[1:]]])[0]
               for message in (1, True, 1)]
        assert got == [revert("1"), revert("True"), revert("1")]
        assert len(texts) == 3

    @pytest.mark.parametrize("at", range(4))
    def test_a_non_object_item_after_a_kept_answer_fails(self, canned, at):
        """An item that is not an object is never equal to a kept one, so
        its answer is decoded and fails, a swap's items too."""
        kept = canned.outcomes([WELL_FORMED])
        assert canned.outcomes([copy.deepcopy(WELL_FORMED)])[0] is kept[0]
        results = copy.deepcopy(WELL_FORMED)
        results[at] = results[at]["value"]
        got = canned.outcomes([results])
        assert isinstance(got, BackendUnavailable)
        assert str(got).startswith("malformed callMany answer item: ")

    def test_error_and_malformed_answers_are_never_kept(self, canned):
        good = canned.outcomes([WELL_FORMED])
        got = canned.outcomes(None, error={"code": -32000, "message": "boom"})
        assert isinstance(got, RpcError)
        again = canned.outcomes([copy.deepcopy(WELL_FORMED)])
        assert again == good and all(a is b for a, b in zip(again, good))
        for _ in range(2):
            got = canned.outcomes([WELL_FORMED[:3]])
            assert isinstance(got, BackendUnavailable)
            assert str(got) == "callMany returned 3 results, expected 4"
        reverting = [*WELL_FORMED[:2], {"error": {"message": "tax"}}, WELL_FORMED[3]]
        for _ in range(2):
            assert canned.outcomes([reverting]) == reference_outcomes(reverting)
        assert canned.outcomes([WELL_FORMED]) == good


class TestEmptySwapReturns:
    def test_an_honest_taxed_pool_whose_swaps_return_nothing_is_clean(self):
        """The fee-on-transfer router functions return no data. A swap
        that went through is a success whatever it returned, so an honest
        pool taxed 10% whose node answers every swap with "0x" gets no
        finding."""
        trace = run_simple(Honest(Fraction(10, 100)), victims=2)
        node = FakeNode(chain=trace.chain)
        swap_selector = abi.bytes_to_hex(abi.SEL_SWAP_EXACT_TOKENS)
        blanked = []

        def transport(payload):
            response = node(payload)
            for request, answer in zip(payload, response):
                if request["method"] != "eth_callMany" or "result" not in answer:
                    continue
                txs = request["params"][0][0]["transactions"]
                for tx, item in zip(txs, answer["result"][0]):
                    if tx["data"].startswith(swap_selector) and "value" in item:
                        item["value"] = "0x"
                        blanked.append(item)
            return response

        rpc = RpcChainView(EndpointConfig(url="fake://"), transport=transport)
        verdict = scan_pool(rpc, trace.pool, trace.trap_token, 1, trace.final_block)
        assert blanked
        assert verdict.findings == []


# ----------------------------------------------------------------------
# the request stream

# sha256 of every request (method and params, ids left out) and every
# scan's POST count, over the pinned corpus at intervals 1, 3 and 7; the
# POSTs and the requests of each method (4,028 in all) are pinned beside it
REQUESTS_PINNED = "d4c669f20717137b"
POSTS_PINNED = 1806
METHODS_PINNED = {
    "eth_call": 1296, "eth_getLogs": 980, "eth_getTransactionByHash": 504, "eth_callMany": 1248,
}


def request_digest(root) -> tuple[str, int, dict[str, int]]:
    """The digest, the POST count and the request count of each method."""
    digest, posts, methods = hashlib.sha256(), 0, Counter()
    for path in gen_corpus(24, 7, root):
        scenario = load_scenario(path)
        trace = run_attack_script(scenario.script, scenario.seed)
        for interval in (1, 3, 7):
            node = FakeNode(chain=trace.chain)
            rpc = RpcChainView(EndpointConfig(url="fake://"), transport=node)
            scan_pool(rpc, trace.pool, trace.trap_token, 1, trace.final_block,
                      ScanSettings(interval=interval))
            for request in node.requests:
                digest.update(json.dumps(request, separators=(",", ":")).encode())
            digest.update(f"posts {node.posts};".encode())
            posts += node.posts
            methods.update(method for method, _ in node.requests)
    return digest.hexdigest()[:16], posts, dict(methods)


class TestRequestStream:
    def test_requests_over_the_pinned_corpus(self, tmp_path):
        assert request_digest(tmp_path) == (REQUESTS_PINNED, POSTS_PINNED, METHODS_PINNED)
