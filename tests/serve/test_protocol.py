"""Unit tests for the serve wire protocol: parsing, fingerprints, results."""

import pytest

from repro.serve.protocol import (
    JobError,
    STACKS,
    job_fingerprint,
    parse_job,
    result_bytes,
    run_stack,
)


class TestParseJob:
    def test_defaults_filled(self):
        spec = parse_job({"stack": "ticket"})
        assert spec["params"]["domain"] == (1, 2)
        assert spec["params"]["lock"] == "q0"
        assert spec["params"]["fuel"] == 2_000
        assert spec["tenant"] == "public"
        assert spec["priority"] == 0

    def test_every_registered_stack_parses_bare(self):
        for stack in STACKS:
            assert parse_job({"stack": stack})["stack"] == stack

    def test_domain_normalized_to_tuple(self):
        spec = parse_job({"stack": "ticket", "params": {"domain": [2, 5]}})
        assert spec["params"]["domain"] == (2, 5)

    def test_unknown_stack_rejected(self):
        with pytest.raises(JobError, match="unknown stack"):
            parse_job({"stack": "spinlock"})

    def test_unknown_param_rejected(self):
        with pytest.raises(JobError, match="unknown params"):
            parse_job({"stack": "ticket", "params": {"fual": 3}})

    def test_ill_typed_param_rejected(self):
        with pytest.raises(JobError, match="params.fuel"):
            parse_job({"stack": "ticket", "params": {"fuel": "lots"}})
        with pytest.raises(JobError, match="params.domain"):
            parse_job({"stack": "ticket", "params": {"domain": [1, 1]}})

    def test_tenant_and_priority_validated(self):
        for tenant in ("../escape", ".hidden"):
            with pytest.raises(JobError, match="tenant"):
                parse_job({"stack": "ticket", "tenant": tenant})
        with pytest.raises(JobError, match="priority"):
            parse_job({"stack": "ticket", "priority": 1000})
        spec = parse_job({"stack": "ticket", "tenant": "ci-7", "priority": 9})
        assert (spec["tenant"], spec["priority"]) == ("ci-7", 9)


class TestFingerprint:
    def test_identity_excludes_tenant_and_priority(self):
        a = parse_job({"stack": "ticket", "tenant": "alpha", "priority": 3})
        b = parse_job({"stack": "ticket", "tenant": "beta", "priority": -3})
        assert job_fingerprint(a) == job_fingerprint(b)

    def test_defaults_equal_explicit(self):
        implicit = parse_job({"stack": "ticket"})
        explicit = parse_job(
            {"stack": "ticket", "params": {"domain": [1, 2], "lock": "q0"}}
        )
        assert job_fingerprint(implicit) == job_fingerprint(explicit)

    def test_params_change_identity(self):
        base = parse_job({"stack": "ticket"})
        other = parse_job({"stack": "ticket", "params": {"fuel": 2_001}})
        assert job_fingerprint(base) != job_fingerprint(other)

    def test_stack_changes_identity(self):
        assert job_fingerprint(parse_job({"stack": "ticket"})) != (
            job_fingerprint(parse_job({"stack": "mcs"}))
        )


class TestRunStack:
    def test_ticket_result_document(self):
        result = run_stack("ticket", {"domain": [1, 2], "lock": "q0"})
        assert result["schema"] == "repro.serve/result/v1"
        assert result["ok"] is True
        assert "lock_stack" in result["certificates"]
        payload = result_bytes(result)
        assert payload == result_bytes(result)  # stable serialization
        assert b'"judgment"' in payload

    def test_execute_job_matches_run_stack_bytes(self, tmp_path):
        # The worker-side path (obs forced off, heartbeat attached,
        # ledger armed) must produce byte-identical results to the
        # plain CLI path — determinism across the wire.
        from repro.serve.protocol import execute_job

        payload = execute_job({
            "job": "jtest",
            "stack": "ticket",
            "params": {"domain": [1, 2], "lock": "q0"},
            "events_path": str(tmp_path / "events.jsonl"),
            "ledger_dir": str(tmp_path / "ledger"),
        })
        assert payload["ok"] is True
        assert payload["bytes"] == result_bytes(
            run_stack("ticket", {"domain": [1, 2], "lock": "q0"})
        )
        # The heartbeat stream got a terminal record...
        stream = (tmp_path / "events.jsonl").read_text()
        assert '"type": "end"' in stream or '"end"' in stream
        # ...and the verification appended a run-ledger record.
        from repro.obs.store import RunLedger

        runs = RunLedger(str(tmp_path / "ledger")).runs()
        assert len(runs) == 1
        assert runs[0]["object"] == "serve/ticket"

    def test_internal_error_ships_without_bytes(self):
        from repro.serve.protocol import execute_job

        payload = execute_job({
            "job": "jbad",
            "stack": "ticket",
            # parse_job inside the worker rejects this: the error must
            # come back as a payload, never as a worker crash.
            "params": {"domain": "not-a-list"},
        })
        assert payload["ok"] is False
        assert payload["bytes"] is None
        assert "domain" in payload["error"]
