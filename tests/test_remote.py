"""HTTP plumbing for the optional model backends, exercised entirely against
a monkeypatched requests layer — no sockets."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
import requests

import kgsemcom.remote as remote
from kgsemcom.remote import RemoteConfig, chat_completion, post_json


class FakeResponse:
    def __init__(self, status_code=200, payload=None):
        self.status_code = status_code
        self._payload = payload if payload is not None else {}

    def raise_for_status(self):
        if self.status_code >= 400:
            raise requests.HTTPError(f"{self.status_code}", response=self)

    def json(self):
        return self._payload


@pytest.fixture
def no_sleep(monkeypatch):
    naps = []
    monkeypatch.setattr(remote.time, "sleep", naps.append)
    return naps


def _cfg(**kw):
    return RemoteConfig(base_url="http://api.test/v1", **kw)


# -- configuration ---------------------------------------------------------------

def test_from_env_requires_base_url(monkeypatch):
    monkeypatch.delenv("KGSEMCOM_API_BASE", raising=False)
    with pytest.raises(RuntimeError, match="KGSEMCOM_API_BASE"):
        RemoteConfig.from_env()


def test_from_env_reads_fields(monkeypatch):
    monkeypatch.setenv("KGSEMCOM_API_BASE", "http://api.test/v1/")
    monkeypatch.setenv("KGSEMCOM_API_KEY", "sekrit")
    monkeypatch.setenv("KGSEMCOM_CHAT_MODEL", "chatty")
    cfg = RemoteConfig.from_env()
    assert cfg.base_url == "http://api.test/v1"  # trailing slash stripped
    assert cfg.api_key == "sekrit"
    assert cfg.model == "chatty"


# -- post_json retry policy --------------------------------------------------------

def test_post_json_success_sends_auth_and_payload(monkeypatch, no_sleep):
    seen = {}

    def fake_post(url, json=None, headers=None, timeout=None):
        seen.update(url=url, json=json, headers=headers, timeout=timeout)
        return FakeResponse(payload={"ok": True})

    monkeypatch.setattr(requests, "post", fake_post)
    out = post_json(_cfg(api_key="tok", timeout=7.5), "/chat/completions", {"x": 1})
    assert out == {"ok": True}
    assert seen["url"] == "http://api.test/v1/chat/completions"
    assert seen["json"] == {"x": 1}
    assert seen["headers"]["Authorization"] == "Bearer tok"
    assert seen["timeout"] == 7.5
    assert no_sleep == []


def test_post_json_no_auth_header_without_key(monkeypatch, no_sleep):
    seen = {}

    def fake_post(url, json=None, headers=None, timeout=None):
        seen.update(headers=headers)
        return FakeResponse(payload={})

    monkeypatch.setattr(requests, "post", fake_post)
    post_json(_cfg(), "/p", {})
    assert "Authorization" not in seen["headers"]


def test_post_json_retries_on_5xx_then_succeeds(monkeypatch, no_sleep):
    responses = [FakeResponse(500), FakeResponse(503), FakeResponse(payload={"ok": 1})]
    calls = []

    def fake_post(url, **kw):
        calls.append(url)
        return responses[len(calls) - 1]

    monkeypatch.setattr(requests, "post", fake_post)
    assert post_json(_cfg(), "/p", {}) == {"ok": 1}
    assert len(calls) == 3
    assert no_sleep == [0.5, 1.0]  # exponential backoff


def test_post_json_retries_on_transport_error(monkeypatch, no_sleep):
    calls = []

    def fake_post(url, **kw):
        calls.append(url)
        if len(calls) == 1:
            raise requests.ConnectionError("refused")
        return FakeResponse(payload={"ok": 1})

    monkeypatch.setattr(requests, "post", fake_post)
    assert post_json(_cfg(), "/p", {}) == {"ok": 1}
    assert len(calls) == 2


def test_post_json_gives_up_after_three_attempts(monkeypatch, no_sleep):
    calls = []

    def fake_post(url, **kw):
        calls.append(url)
        raise requests.Timeout("slow")

    monkeypatch.setattr(requests, "post", fake_post)
    with pytest.raises(RuntimeError, match="after 3 attempts"):
        post_json(_cfg(), "/p", {})
    assert len(calls) == 3
    assert no_sleep == [0.5, 1.0]


def test_post_json_does_not_retry_client_errors(monkeypatch, no_sleep):
    calls = []

    def fake_post(url, **kw):
        calls.append(url)
        return FakeResponse(404)

    monkeypatch.setattr(requests, "post", fake_post)
    with pytest.raises(requests.HTTPError):
        post_json(_cfg(), "/p", {})
    assert len(calls) == 1
    assert no_sleep == []


# -- chat_completion ---------------------------------------------------------------

def test_chat_completion_parses_reply_and_pins_temperature(monkeypatch):
    seen = {}

    def fake_post_json(config, path, payload):
        seen.update(path=path, payload=payload)
        return {"choices": [{"message": {"content": "hello there"}}]}

    monkeypatch.setattr(remote, "post_json", fake_post_json)
    cfg = _cfg(model="chatty")
    assert chat_completion(cfg, "hi") == "hello there"
    assert seen["path"] == "/chat/completions"
    assert seen["payload"]["temperature"] == 0
    assert seen["payload"]["model"] == "chatty"
    assert seen["payload"]["messages"] == [{"role": "user", "content": "hi"}]


def test_chat_completion_null_content_becomes_empty(monkeypatch):
    monkeypatch.setattr(remote, "post_json",
                        lambda c, p, d: {"choices": [{"message": {"content": None}}]})
    assert chat_completion(_cfg(), "hi") == ""


def test_chat_completion_malformed_response(monkeypatch):
    for bad in ({}, {"choices": []}, {"choices": [{"message": {}}]}, {"choices": [None]}):
        monkeypatch.setattr(remote, "post_json", lambda c, p, d, bad=bad: bad)
        with pytest.raises(ValueError, match="malformed"):
            chat_completion(_cfg(), "hi")


# -- the deferred import ---------------------------------------------------------

def test_offline_run_never_imports_requests():
    # a fresh interpreter, since this one has imported requests for the tests above
    src = str(Path(remote.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    script = textwrap.dedent("""
        import sys
        from importlib import resources

        import kgsemcom, kgsemcom.cli
        from kgsemcom import kg as kgmod
        from kgsemcom.harness import PipelineContext, load_corpus, run_pipeline

        data = resources.files("kgsemcom") / "data"
        ctx = PipelineContext(kgmod.load(str(data / "sample_kg.tsv")))
        sentence = load_corpus(str(data / "fixture_corpus.txt"))[0]
        record = run_pipeline(ctx, sentence, sentence_id=0, snr_db=float("inf"), seed=0)
        assert record.similarity > 0, record
        assert "requests" not in sys.modules
    """)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
