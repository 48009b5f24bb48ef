"""trapscan: detection of honeypot-trap liquidity pools on AMM exchanges.

The package splits into backend-agnostic detection logic (monitor,
simulator, analyzer, pipeline) over an abstract chain contract
(chainview), with two backends: a deterministic in-memory mock chain that
can execute every trap family (mockchain) and a live JSON-RPC client for
archive nodes (rpcbackend).
"""

from .analyzer import (
    Finding,
    PoolVerdict,
    check_cannot_sell,
    check_invalid_buy,
    check_invalid_sell,
    check_unauthorized_transfer,
    classify_pool,
    recompute_finding,
)
from .chainview import ChainView
from .core import Address, BlockIndex, DexVersion, PoolInfo, TokenAmount, TrapType
from .mockchain import MockChain, run_attack_script
from .monitor import PoolWatch, ingest_block
from .pipeline import ScanSettings, ScanSummary, scan_pool, scan_pools
from .simulator import (
    Bundle,
    BundleKind,
    SimulationResult,
    build_buy_probe,
    build_buy_sell_bundle,
    build_sell_bundle,
    estimate_output,
)

__version__ = "0.1.0"

__all__ = [
    "Address",
    "BlockIndex",
    "Bundle",
    "BundleKind",
    "ChainView",
    "DexVersion",
    "Finding",
    "MockChain",
    "PoolInfo",
    "PoolVerdict",
    "PoolWatch",
    "ScanSettings",
    "ScanSummary",
    "SimulationResult",
    "TokenAmount",
    "TrapType",
    "build_buy_probe",
    "build_buy_sell_bundle",
    "build_sell_bundle",
    "check_cannot_sell",
    "check_invalid_buy",
    "check_invalid_sell",
    "check_unauthorized_transfer",
    "classify_pool",
    "estimate_output",
    "ingest_block",
    "recompute_finding",
    "run_attack_script",
    "scan_pool",
    "scan_pools",
    "__version__",
]
