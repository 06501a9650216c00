"""Shared fixtures of the network-server suite: loopback server factories."""

from __future__ import annotations

import pytest

from _server_helpers import event_config
from repro.server.router import RouterConfig, RouterThread
from repro.server.server import ServerConfig, ServerThread
from repro.service.pool import DetectorPool, PoolConfig


@pytest.fixture
def loopback():
    """Factory: start a loopback server; all started servers stop at teardown."""
    threads: list[ServerThread] = []

    def start(pool_config: PoolConfig | None = None, server_config: ServerConfig | None = None):
        thread = ServerThread(DetectorPool(pool_config or event_config()), server_config)
        threads.append(thread)
        host, port = thread.start()
        return thread, host, port

    yield start
    for thread in threads:
        thread.stop()


@pytest.fixture(params=["server", "router"])
def daemon(request, loopback):
    """Factory over both daemons that share the frontend: a loopback
    server, or a router in front of one, whose frontend takes the given
    config fields.  Returns ``(host, port)``."""
    routers: list[RouterThread] = []

    def start(pool_config: PoolConfig | None = None, **frontend):
        if request.param == "server":
            _, host, port = loopback(pool_config, ServerConfig(**frontend))
            return host, port
        _, host, port = loopback(pool_config)
        thread = RouterThread([f"{host}:{port}"], RouterConfig(**frontend))
        routers.append(thread)
        return thread.start()

    yield start
    for thread in routers:
        thread.stop()
