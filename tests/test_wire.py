"""Wire-contract tests against real local HTTP servers."""

import time

import numpy as np
import pytest

from poem import RemoteEncoder, RemoteLM, ScoreRequest, score_prompt, wire
from poem.errors import BackendError, InvalidInputError, ProtocolError


def embed_handler(dim=4):
    def handler(payload):
        texts = payload["texts"]
        rows = []
        for text in texts:
            rng = np.random.default_rng(abs(hash(text)) % (2**32))
            rows.append([float(x) for x in rng.standard_normal(dim)])
        return 200, {"embeddings": rows, "dim": dim}

    return handler


def classify_handler(payload):
    labels = payload.get("labels", [])
    return 200, {"per_label_logprob": {lab: -0.5 - i for i, lab in enumerate(labels)}}


class TestRemoteEncoder:
    def test_success_path(self, fake_server):
        srv = fake_server(embed_handler(dim=6))
        enc = RemoteEncoder(srv.url)
        out = enc.encode(["alpha", "beta"])
        assert len(out) == 2 and all(e.dim == 6 for e in out)
        assert srv.requests == [{"texts": ["alpha", "beta"]}]

    def test_retries_transient_500s(self, fake_server):
        srv = fake_server(embed_handler(), fail_first=3)
        enc = RemoteEncoder(srv.url, backoff=0.001)
        out = enc.encode(["alpha"])
        assert len(out) == 1
        assert srv.calls == 4  # three scripted failures, then success

    def test_exhausted_retries_carry_status_and_attempts(self, fake_server):
        srv = fake_server(embed_handler(), fail_first=99)
        enc = RemoteEncoder(srv.url, backoff=0.001, max_attempts=4)
        with pytest.raises(BackendError) as err:
            enc.encode(["alpha"])
        assert err.value.attempts == 4
        assert err.value.status == 500

    def test_client_error_fails_fast(self, fake_server):
        srv = fake_server(lambda payload: (404, {"error": "nope"}))
        enc = RemoteEncoder(srv.url, backoff=0.001)
        with pytest.raises(BackendError) as err:
            enc.encode(["alpha"])
        assert err.value.status == 404
        assert srv.calls == 1

    def test_dim_mismatch_is_backend_error(self, fake_server):
        srv = fake_server(lambda payload: (200, {"embeddings": [[1.0, 2.0]], "dim": 3}))
        with pytest.raises(BackendError, match="dim"):
            RemoteEncoder(srv.url).encode(["alpha"])

    def test_row_count_mismatch_is_protocol_error(self, fake_server):
        srv = fake_server(lambda payload: (200, {"embeddings": [], "dim": 3}))
        with pytest.raises(ProtocolError):
            RemoteEncoder(srv.url).encode(["alpha"])

    def test_missing_fields_is_protocol_error(self, fake_server):
        srv = fake_server(lambda payload: (200, {"vectors": [[1.0]]}))
        with pytest.raises(ProtocolError):
            RemoteEncoder(srv.url).encode(["alpha"])

    def test_non_json_body_is_protocol_error(self, fake_server):
        srv = fake_server(lambda payload: (200, "this is not json"))
        with pytest.raises(ProtocolError):
            RemoteEncoder(srv.url).encode(["alpha"])

    def test_unreachable_host_is_backend_error(self):
        enc = RemoteEncoder("http://127.0.0.1:1/", backoff=0.001, max_attempts=2)
        with pytest.raises(BackendError) as err:
            enc.encode(["alpha"])
        assert err.value.attempts == 2

    def test_env_var_fallback(self, fake_server, monkeypatch):
        srv = fake_server(embed_handler())
        monkeypatch.setenv("POEM_EMBED_URL", srv.url)
        assert RemoteEncoder().encode(["alpha"])[0].dim == 4
        monkeypatch.delenv("POEM_EMBED_URL")
        with pytest.raises(InvalidInputError):
            RemoteEncoder()


class TestRemoteLM:
    def test_classify_success(self, fake_server):
        srv = fake_server(classify_handler)
        lm = RemoteLM(srv.url)
        req = ScoreRequest(prompt="p", mode="classify", labels=("yes", "no"), truth="yes")
        resp = score_prompt(lm, req)
        assert resp.per_label_logprob == {"yes": -0.5, "no": -1.5}
        assert srv.requests[0] == {
            "prompt": "p", "mode": "classify", "labels": ["yes", "no"], "truth": "yes",
        }

    def test_retry_then_success(self, fake_server):
        srv = fake_server(classify_handler, fail_first=3)
        lm = RemoteLM(srv.url, backoff=0.001)
        req = ScoreRequest(prompt="p", mode="classify", labels=("yes", "no"), truth="yes")
        resp = score_prompt(lm, req)
        assert srv.calls == 4
        assert resp.per_label_logprob is not None

    def test_missing_required_field_is_protocol_error(self, fake_server):
        srv = fake_server(lambda payload: (200, {"generated_text": "irrelevant"}))
        lm = RemoteLM(srv.url)
        req = ScoreRequest(prompt="p", mode="classify", labels=("yes", "no"), truth="yes")
        with pytest.raises(ProtocolError, match="per_label_logprob"):
            score_prompt(lm, req)

    def test_non_finite_logprob_is_protocol_error(self, fake_server):
        srv = fake_server(
            lambda payload: (200, {"per_label_logprob": {"yes": None, "no": -1.0}})
        )
        lm = RemoteLM(srv.url)
        req = ScoreRequest(prompt="p", mode="classify", labels=("yes", "no"), truth="yes")
        with pytest.raises(ProtocolError):
            score_prompt(lm, req)

    def test_sequence_mode(self, fake_server):
        srv = fake_server(
            lambda payload: (200, {"truth_logprobs": [-0.1, -0.2], "rival_logprobs": [-1.0]})
        )
        lm = RemoteLM(srv.url)
        resp = score_prompt(lm, ScoreRequest(prompt="p", mode="sequence", truth="x y"))
        assert resp.truth_logprobs == (-0.1, -0.2)
        assert resp.rival_logprobs == (-1.0,)

    def test_generate_mode(self, fake_server):
        srv = fake_server(lambda payload: (200, {"generated_text": "Paris"}))
        lm = RemoteLM(srv.url)
        resp = score_prompt(lm, ScoreRequest(prompt="p", mode="generate", truth="paris"))
        assert resp.generated_text == "Paris"

    def test_env_var_fallback(self, fake_server, monkeypatch):
        srv = fake_server(classify_handler)
        monkeypatch.setenv("POEM_LM_URL", srv.url)
        lm = RemoteLM()
        assert lm.url == srv.url
        monkeypatch.delenv("POEM_LM_URL")
        with pytest.raises(InvalidInputError):
            RemoteLM()


@pytest.mark.parametrize(
    "client, variable, what",
    [(RemoteEncoder, "POEM_EMBED_URL", "embedding"), (RemoteLM, "POEM_LM_URL", "LM")],
)
def test_missing_endpoint_message(monkeypatch, client, variable, what):
    monkeypatch.delenv(variable, raising=False)
    with pytest.raises(InvalidInputError) as err:
        client()
    assert str(err.value) == (
        f"no {what} endpoint configured: pass url= or set {variable}"
    )


@pytest.mark.parametrize("url", ["not a url", "5", "ftp://x/", "http://[bad"])
def test_malformed_url_is_not_retried(url):
    started = time.perf_counter()
    with pytest.raises(BackendError) as err:
        RemoteLM(url, backoff=5).score(ScoreRequest(prompt="p", mode="generate", truth="x"))
    assert err.value.attempts == 1
    assert time.perf_counter() - started < 1.0


@pytest.mark.parametrize("attempts", [0, -1])
def test_max_attempts_below_one_rejected(fake_server, attempts):
    srv = fake_server(classify_handler)
    with pytest.raises(InvalidInputError, match="max_attempts"):
        RemoteLM(srv.url, max_attempts=attempts)
    with pytest.raises(InvalidInputError, match="max_attempts"):
        wire.post_json(srv.url, {}, max_attempts=attempts)
    assert srv.calls == 0


class TestTooManyRequests:
    """429 is transient: retried with the 5xx backoff and attempt budget."""

    def test_a_429_then_a_200_succeeds(self, fake_server):
        answers = iter([(429, {"error": "slow down"})])
        srv = fake_server(lambda payload: next(answers, (200, {"ok": True})))
        assert wire.post_json(srv.url, {"x": 1}, backoff=0.001) == {"ok": True}
        assert srv.calls == 2

    def test_429s_until_max_attempts_raise_with_the_status(self, fake_server):
        srv = fake_server(lambda payload: (429, {"error": "slow down"}))
        with pytest.raises(BackendError) as err:
            wire.post_json(srv.url, {}, max_attempts=3, backoff=0.001)
        assert err.value.status == 429 and err.value.attempts == 3
        assert srv.calls == 3

    def test_429s_wait_the_same_backoff_as_5xx(self, fake_server, monkeypatch):
        slept = []
        monkeypatch.setattr(wire.time, "sleep", slept.append)
        srv = fake_server(lambda payload: (429, {}))
        with pytest.raises(BackendError):
            wire.post_json(srv.url, {}, max_attempts=4, backoff=0.5)
        assert slept == [0.5, 1.0, 2.0]
