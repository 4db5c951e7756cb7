"""Addressing a live broker: the ``garnet://host:port`` URL."""

from __future__ import annotations

from urllib.parse import urlsplit

from repro.errors import ConfigurationError

#: URL scheme for live broker endpoints, e.g. ``garnet://127.0.0.1:7341``.
URL_SCHEME = "garnet"


def parse_garnet_url(url: str) -> tuple[str, int]:
    """``garnet://host:port`` -> ``(host, port)``.

    The port is the broker's TCP *control* port; the UDP data port is
    announced in the HELLO response, not encoded in the URL.
    """
    parts = urlsplit(url)
    if parts.scheme != URL_SCHEME:
        raise ConfigurationError(
            f"expected a {URL_SCHEME}:// URL, got {url!r}"
        )
    if parts.path or parts.query or parts.fragment:
        raise ConfigurationError(
            f"garnet URLs carry only host:port, got {url!r}"
        )
    host = parts.hostname
    if not host:
        raise ConfigurationError(f"garnet URL needs a host: {url!r}")
    try:
        port = parts.port
    except ValueError as exc:
        raise ConfigurationError(f"bad port in garnet URL {url!r}") from exc
    if port is None:
        raise ConfigurationError(f"garnet URL needs a port: {url!r}")
    return host, port


__all__ = ["parse_garnet_url", "URL_SCHEME"]
