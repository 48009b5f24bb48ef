"""JSON-RPC 2.0 transport with retries, batching, and rate limiting.

Every request goes out inside a JSON-RPC batch, a lone request as a batch
of one. The wire transport is injectable: anything callable as
``transport(payload) -> response`` works, where the payload is the parsed
batch (a list of request objects) and the response the parsed answer (a
list of response objects). Production uses an HTTP POST via requests;
tests plug in replay fakes.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

DEFAULT_TIMEOUT = 30.0


class RpcError(Exception):
    """JSON-RPC level error response."""

    def __init__(self, code: int, message: str, data: Any = None):
        super().__init__(f"rpc error {code}: {message}")
        self.code = code
        self.message = message
        self.data = data


class MethodNotSupported(RpcError):
    pass


class NodeLimitError(RpcError):
    """The node refused the query for being too large; split and retry."""


class TransportError(Exception):
    """Exhausted retries against the endpoint."""


_LIMIT_MARKERS = (
    "query returned more than",
    "response size exceed",
    "log response size",
    "range is too large",
    "too many results",
)


def classify_error(code: int, message: str, data: Any = None) -> RpcError:
    if code == -32601:
        return MethodNotSupported(code, message, data)
    lowered = (message or "").lower()
    if any(marker in lowered for marker in _LIMIT_MARKERS):
        return NodeLimitError(code, message, data)
    return RpcError(code, message, data)


@dataclass(frozen=True)
class EndpointConfig:
    """Connection parameters for one JSON-RPC endpoint."""

    url: str
    request_timeout: float = DEFAULT_TIMEOUT
    max_batch: int = 100
    retries: int = 3
    rate_limit: float = 0.0  # requests/second; 0 disables
    extra: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.request_timeout <= 0:
            raise ValueError("request_timeout must be positive")
        if self.retries < 0 or self.retries > 20:
            raise ValueError("retries must be in [0, 20]")
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        # A misspelt override would otherwise scan with its default.
        unknown = [key for key in self.extra if key not in EXTRA_KEYS]
        if unknown:
            raise ValueError(f"unknown config key: {', '.join(map(repr, unknown))}")

    @classmethod
    def from_doc(cls, doc: dict) -> "EndpointConfig":
        kwargs = {k: doc[k] for k in ENDPOINT_KEYS if k in doc}
        extra = {k: v for k, v in doc.items() if k not in ENDPOINT_KEYS}
        return cls(extra=extra, **kwargs)


# Every key a backend config document may hold: the endpoint's fields, and what
# `extra` carries (the view's contract overrides and the scan's base tokens).
ENDPOINT_KEYS = ("url", "request_timeout", "max_batch", "retries", "rate_limit")
EXTRA_KEYS = frozenset({
    "v2_router", "v3_router", "v3_quoter", "factories", "balance_slots",
    "default_balance_slot", "base_tokens",
})


def load_backend_config(path: str | Path) -> dict:
    """Read a backend config document (JSON object)."""
    doc = json.loads(Path(path).read_text())
    if not isinstance(doc, dict):
        raise ValueError("backend config must be a JSON object")
    return doc


class _RateGate:
    """Simple minimum-interval gate shared across threads."""

    def __init__(self, per_second: float):
        self._interval = 1.0 / per_second if per_second > 0 else 0.0
        self._lock = threading.Lock()
        self._next_at = 0.0

    def wait(self) -> None:
        if not self._interval:
            return
        with self._lock:
            now = time.monotonic()
            delay = self._next_at - now
            self._next_at = max(now, self._next_at) + self._interval
        if delay > 0:
            time.sleep(delay)


def http_transport(config: EndpointConfig) -> Callable[[Any], Any]:
    import requests  # deferred: slow to import, and only this transport needs it

    session = requests.Session()

    def send(payload: Any) -> Any:
        resp = session.post(config.url, json=payload, timeout=config.request_timeout)
        resp.raise_for_status()
        return resp.json()

    return send


class JsonRpcClient:
    """Thread-safe JSON-RPC caller; concurrent requests allowed up to the
    configured rate limit."""

    def __init__(
        self,
        config: EndpointConfig,
        transport: Callable[[Any], Any] | None = None,
    ):
        self.config = config
        self._transport = transport or http_transport(config)
        self._gate = _RateGate(config.rate_limit)
        self._id_lock = threading.Lock()
        self._next_id = 1

    def _take_id(self) -> int:
        with self._id_lock:
            rid = self._next_id
            self._next_id += 1
            return rid

    def _send(self, payload: Any) -> Any:
        last_exc: Exception | None = None
        for attempt in range(self.config.retries + 1):
            self._gate.wait()
            try:
                return self._transport(payload)
            except (OSError, ValueError) as exc:  # requests' errors are OSErrors
                last_exc = exc
                if attempt < self.config.retries:
                    time.sleep(min(2.0, 0.1 * 2**attempt))
        raise TransportError(f"endpoint unreachable after retries: {last_exc}")

    def call_batch(self, requests_: list[tuple[str, list]]) -> list[Any]:
        """Issue calls in batches of max_batch; results in request order.

        Per-item JSON-RPC errors surface as RpcError entries in the result
        list rather than aborting the whole batch. A response that is not a
        list of objects raises TransportError.
        """
        results: list[Any] = []
        for start in range(0, len(requests_), self.config.max_batch):
            chunk = requests_[start:start + self.config.max_batch]
            payload = []
            ids = []
            for method, params in chunk:
                rid = self._take_id()
                ids.append(rid)
                payload.append(
                    {"jsonrpc": "2.0", "id": rid, "method": method, "params": params}
                )
            response = self._send(payload)
            if not isinstance(response, list):
                raise TransportError(f"batch response is not a list: {response!r}")
            for item in response:
                if not isinstance(item, dict):
                    raise TransportError(f"malformed response item: {item!r}")
            by_id = {item.get("id"): item for item in response}
            for rid in ids:
                item = by_id.get(rid)
                if item is None:
                    results.append(RpcError(-32000, f"missing response for id {rid}"))
                elif item.get("error") is not None:
                    err = item["error"]
                    results.append(classify_error(
                        int(err.get("code", -32000)), str(err.get("message", "")), err.get("data")
                    ))
                else:
                    results.append(item.get("result"))
        return results
