"""``python -m repro.service`` — run the TCP ranking server.

Example::

    python -m repro.service --host 127.0.0.1 --port 8765 \\
        --max-batch 64 --max-delay-ms 2 --cache-ttl 30

The server accepts JSON-lines requests (see :mod:`repro.service.tcp`
for the protocol) and coalesces concurrent requests into batched engine
calls.  Stop it with Ctrl-C.
"""

from __future__ import annotations

import argparse
import asyncio
from typing import Any

from ..engine.facade import Engine
from .control import ControlPlane
from .pool import PooledRankingService, WorkerPool
from .resilience import BreakerConfig, DegradePolicy, HedgePolicy
from .service import RankingService
from .tcp import serve_tcp


def build_parser() -> argparse.ArgumentParser:
    """The command-line interface of the ranking server."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Coalescing TCP ranking server over the PRF engine.",
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address (default: %(default)s)")
    parser.add_argument("--port", type=int, default=8765, help="bind port (default: %(default)s)")
    parser.add_argument(
        "--max-batch", type=int, default=64,
        help="max requests per coalesced window (default: %(default)s)",
    )
    parser.add_argument(
        "--max-delay-ms", type=float, default=2.0,
        help="upper bound of the adaptive coalescing window in milliseconds; "
        "a window closes earlier once the next request is not expected "
        "inside it (default: %(default)s)",
    )
    parser.add_argument(
        "--max-pending", type=int, default=1024,
        help="admission bound before requests are shed (default: %(default)s)",
    )
    parser.add_argument(
        "--cache-ttl", type=float, default=30.0,
        help="result-cache TTL in seconds, 0 disables (default: %(default)s)",
    )
    parser.add_argument(
        "--cache-entries", type=int, default=1024,
        help="result-cache LRU bound (default: %(default)s)",
    )
    parser.add_argument(
        "--max-registered", type=int, default=256,
        help="bound on server-side registered datasets (default: %(default)s)",
    )
    parser.add_argument(
        "--pool-shards", type=int, default=0,
        help="run a sharded worker pool of this many engine processes "
        "behind the coalescer (0 = single in-process engine, default)",
    )
    parser.add_argument(
        "--shard-depth", type=int, default=256,
        help="per-shard in-flight bound before sub-batches are shed "
        "(default: %(default)s)",
    )
    parser.add_argument(
        "--pool-retries", type=int, default=3,
        help="re-dispatch attempts after a worker failure (default: %(default)s)",
    )
    parser.add_argument(
        "--reply-timeout", type=float, default=30.0,
        help="base seconds of the per-batch reply deadline (scaled by "
        "batch size); a worker silent through the deadline, a liveness "
        "probe and a grace period is restarted (default: %(default)s)",
    )
    parser.add_argument(
        "--pool-replicas", type=int, default=2,
        help="shards a hot dataset fans out across (default: %(default)s)",
    )
    parser.add_argument(
        "--mp-context", default=None,
        help="multiprocessing start method for pool workers "
        "(default: fork where available)",
    )
    parser.add_argument(
        "--admin-token", default=None,
        help="shared secret gating operator ops (live resize); "
        "unset disables them entirely",
    )
    parser.add_argument(
        "--no-breakers", action="store_true",
        help="disable the per-shard circuit breakers (pooled mode "
        "enables them by default)",
    )
    parser.add_argument(
        "--hedge-quantile", type=float, default=0.95,
        help="latency quantile arming hedged duplicate dispatches; "
        "<= 0 disables hedging (default: %(default)s)",
    )
    parser.add_argument(
        "--degrade-approx", type=float, default=None,
        help="error budget substituted for exact requests under overload "
        "or open breakers (unset disables degradation)",
    )
    parser.add_argument(
        "--probe-interval", type=float, default=5.0,
        help="seconds between background worker probes feeding the "
        "breakers; <= 0 disables (default: %(default)s)",
    )
    return parser


async def run(args: argparse.Namespace) -> None:
    """Start the service and serve until cancelled."""
    engine = Engine()
    service_kwargs: dict[str, Any] = dict(
        max_batch=args.max_batch,
        max_delay=args.max_delay_ms / 1000.0,
        max_pending=args.max_pending,
        cache_ttl=args.cache_ttl,
        cache_entries=args.cache_entries,
    )
    service: RankingService
    if args.pool_shards > 0:
        pool = WorkerPool(
            args.pool_shards,
            max_shard_depth=args.shard_depth,
            max_retries=args.pool_retries,
            reply_timeout=args.reply_timeout,
            replicas=args.pool_replicas,
            mp_context=args.mp_context,
            breaker=None if args.no_breakers else BreakerConfig(),
            hedge=(
                HedgePolicy(quantile=args.hedge_quantile)
                if args.hedge_quantile > 0
                else None
            ),
        )
        service = PooledRankingService(
            pool,
            engine=engine,
            degrade=(
                DegradePolicy(approx=args.degrade_approx)
                if args.degrade_approx is not None
                else None
            ),
            probe_interval=args.probe_interval if args.probe_interval > 0 else None,
            **service_kwargs,
        )
    else:
        service = RankingService(engine, **service_kwargs)
    control = ControlPlane(args.admin_token) if args.admin_token else None
    async with service:
        server = await serve_tcp(
            service,
            args.host,
            args.port,
            max_registered=args.max_registered,
            control=control,
        )
        addresses = ", ".join(
            f"{sock.getsockname()[0]}:{sock.getsockname()[1]}" for sock in server.sockets
        )
        print(f"ranking service listening on {addresses}")
        print(
            f"  coalescing: window<={args.max_delay_ms}ms batch<={args.max_batch} "
            f"pending<={args.max_pending} cache_ttl={args.cache_ttl}s"
        )
        if args.pool_shards > 0:
            print(
                f"  worker pool: shards={args.pool_shards} "
                f"shard_depth<={args.shard_depth} retries={args.pool_retries} "
                f"replicas={args.pool_replicas}"
            )
            print(
                "  resilience: "
                f"breakers={'off' if args.no_breakers else 'on'} "
                f"hedge_quantile={args.hedge_quantile} "
                f"degrade_approx={args.degrade_approx} "
                f"resize={'enabled' if control is not None else 'disabled'}"
            )
        try:
            async with server:
                await server.serve_forever()
        finally:
            engine.close()


def main(argv: list[str] | None = None) -> None:
    """Parse arguments and run the server (entry point)."""
    args = build_parser().parse_args(argv)
    try:
        asyncio.run(run(args))
    except KeyboardInterrupt:
        print("\nranking service stopped")


if __name__ == "__main__":
    main()
