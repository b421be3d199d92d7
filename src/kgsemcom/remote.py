"""Shared HTTP plumbing for the optional model backends.

Endpoints and credentials come from the environment so configs and reports
never embed secrets:

    KGSEMCOM_API_BASE   e.g. https://host/v1
    KGSEMCOM_API_KEY    bearer token (optional)
    KGSEMCOM_CHAT_MODEL

Requests retry twice with exponential backoff on transport errors and 5xx.
``requests`` is imported by post_json, on the first call that sends one, so
an offline run (the stub backends) never loads the HTTP stack.
"""

import os
import time
from dataclasses import dataclass, field

DEFAULT_TIMEOUT = 30.0
RETRIES = 2
BACKOFF_SECONDS = 0.5


@dataclass
class RemoteConfig:
    base_url: str
    api_key: str = ""
    model: str = ""
    chat_path: str = "/chat/completions"
    timeout: float = DEFAULT_TIMEOUT
    extra_headers: dict = field(default_factory=dict)

    @classmethod
    def from_env(cls) -> "RemoteConfig":
        base = os.environ.get("KGSEMCOM_API_BASE", "")
        if not base:
            raise RuntimeError("KGSEMCOM_API_BASE is not set; remote backends unavailable")
        return cls(base_url=base.rstrip("/"),
                   api_key=os.environ.get("KGSEMCOM_API_KEY", ""),
                   model=os.environ.get("KGSEMCOM_CHAT_MODEL", ""))


def post_json(config: RemoteConfig, path: str, payload: dict) -> dict:
    import requests  # deferred: only a remote call needs the HTTP stack

    headers = {"Content-Type": "application/json", **config.extra_headers}
    if config.api_key:
        headers["Authorization"] = f"Bearer {config.api_key}"
    url = config.base_url + path
    last_error: Exception | None = None
    for attempt in range(RETRIES + 1):
        try:
            resp = requests.post(url, json=payload, headers=headers, timeout=config.timeout)
            if resp.status_code >= 500:
                raise requests.HTTPError(f"{resp.status_code} from {url}", response=resp)
            resp.raise_for_status()
            return resp.json()
        except (requests.ConnectionError, requests.Timeout, requests.HTTPError) as err:
            status = getattr(getattr(err, "response", None), "status_code", None)
            if status is not None and 400 <= status < 500:
                raise
            last_error = err
            if attempt < RETRIES:
                time.sleep(BACKOFF_SECONDS * (2 ** attempt))
    raise RuntimeError(f"request to {url} failed after {RETRIES + 1} attempts") from last_error


# a chat completion without a message's content starts its ValueError with this
MALFORMED_REPLY = "malformed chat completion response"


def chat_completion(config: RemoteConfig, prompt: str) -> str:
    payload = {
        "model": config.model,
        "messages": [{"role": "user", "content": prompt}],
        "temperature": 0,
    }
    data = post_json(config, config.chat_path, payload)
    try:
        return data["choices"][0]["message"]["content"] or ""
    except (KeyError, IndexError, TypeError) as err:
        raise ValueError(f"{MALFORMED_REPLY}: {data!r}") from err
