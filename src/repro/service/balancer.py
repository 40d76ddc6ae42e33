"""Load-balancing policies for spreading requests across servers.

A policy picks the server for each arriving request.  The classic spectrum is
covered:

* :class:`RandomBalancer` -- uniform random, no state;
* :class:`RoundRobinBalancer` -- deterministic rotation, perfectly fair in
  counts but blind to queue state;
* :class:`JoinShortestQueue` -- full information, provably latency-optimal
  among non-anticipating policies for identical servers;
* :class:`PowerOfTwoChoices` -- sample two random servers and join the
  shorter queue; captures most of JSQ's benefit with O(1) state probes.

Policies only read ``server.backlog`` (queued plus in-service requests), so
they work with any server object exposing that property.
"""

from __future__ import annotations

import random
from typing import Protocol, Sequence


class _HasBacklog(Protocol):
    @property
    def backlog(self) -> int:
        """Requests queued at or in service on the server."""


class RandomBalancer:
    """Pick a server uniformly at random."""

    name = "random"

    def select(self, servers: "Sequence[_HasBacklog]", rng: random.Random) -> int:
        """One uniform draw from ``rng`` over the server indices."""
        return rng.randrange(len(servers))


class RoundRobinBalancer:
    """Rotate through the servers in order."""

    name = "round_robin"

    def __init__(self) -> None:
        self._next = 0

    def select(self, servers: "Sequence[_HasBacklog]", rng: random.Random) -> int:
        """The next index in rotation; ``rng`` is never drawn from."""
        index = self._next % len(servers)
        self._next += 1
        return index


class JoinShortestQueue:
    """Send the request to the server with the smallest backlog (ties: lowest id)."""

    name = "jsq"

    def select(self, servers: "Sequence[_HasBacklog]", rng: random.Random) -> int:
        """Index of the first server holding the minimum backlog.

        ``list.index`` stops at the first match, so ties go to the lowest id.
        """
        backlogs = [server.backlog for server in servers]
        return backlogs.index(min(backlogs))


class PowerOfTwoChoices:
    """Probe two distinct random servers; join the one with the smaller backlog."""

    name = "po2"

    def select(self, servers: "Sequence[_HasBacklog]", rng: random.Random) -> int:
        """Two draws from ``rng`` (none for one server); ties keep the first."""
        if len(servers) == 1:
            return 0
        first = rng.randrange(len(servers))
        second = rng.randrange(len(servers) - 1)
        if second >= first:
            second += 1
        if servers[second].backlog < servers[first].backlog:
            return second
        return first


#: Balancer factories keyed by the names the experiments/CLI use.
BALANCER_POLICIES = {
    "random": RandomBalancer,
    "round_robin": RoundRobinBalancer,
    "jsq": JoinShortestQueue,
    "po2": PowerOfTwoChoices,
}


def make_balancer(name: str):
    """Build a fresh balancer instance for the named policy."""
    try:
        factory = BALANCER_POLICIES[name.lower()]
    except KeyError:
        raise ValueError(
            f"unknown balancer policy {name!r}; known: {sorted(BALANCER_POLICIES)}"
        ) from None
    return factory()
