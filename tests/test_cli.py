"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_pingpong_command(capsys):
    rc = main(["pingpong", "--sizes", "0,1024", "--devices", "p4,v2",
               "--reps", "3"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "p4 us" in out and "v2 us" in out
    assert "1024" in out


def test_burst_command(capsys):
    rc = main(["burst", "--sizes", "65536", "--reps", "2"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "V2/P4" in out


def test_kernel_command(capsys):
    rc = main(["kernel", "cg", "--class", "T", "-n", "4", "--device", "v2"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "CG-T" in out
    assert "Mop/s" in out


def test_faulty_command(capsys):
    rc = main(["faulty", "cg", "--class", "S", "-n", "4", "--faults", "1"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "restarts" in out


def test_sched_command(capsys):
    rc = main(["sched", "--nodes", "8"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "broadcast" in out
    assert "RR/AD" in out


def test_kernel_rejects_unknown():
    with pytest.raises(SystemExit):
        main(["kernel", "nope"])


def test_pingpong_rejects_unknown_device(capsys):
    rc = main(["pingpong", "--devices", "p4,bogus", "--sizes", "0"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "bogus" in err


def test_faulty_rejects_non_v2_device(capsys):
    rc = main(["faulty", "cg", "--class", "T", "--device", "p4"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "v2" in err


def test_faulty_reports_mechanism_stats(capsys):
    rc = main(["faulty", "cg", "--class", "S", "-n", "4", "--faults", "1"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "replayed" in out and "ckpt MB" in out


def test_stats_command(capsys):
    rc = main(["stats", "cg", "--class", "T", "-n", "2"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "el.roundtrips" in out
    assert "senderlog.bytes" in out


def test_kernel_trace_out_writes_chrome_trace(tmp_path, capsys):
    import json

    path = tmp_path / "t.json"
    rc = main(["kernel", "cg", "--class", "T", "-n", "2",
               "--trace-out", str(path)])
    assert rc == 0
    doc = json.loads(path.read_text())
    assert doc["traceEvents"]
    assert any(e.get("ph") == "i" for e in doc["traceEvents"])


def test_kernel_metrics_out_writes_registry(tmp_path, capsys):
    import json

    path = tmp_path / "m.json"
    rc = main(["kernel", "cg", "--class", "T", "-n", "2",
               "--metrics-out", str(path)])
    assert rc == 0
    entries = json.loads(path.read_text())
    assert any(e["name"] == "el.roundtrips" for e in entries)


def test_pingpong_trace_out_merges_runs(tmp_path, capsys):
    import json

    path = tmp_path / "t.json"
    rc = main(["pingpong", "--sizes", "1024", "--devices", "p4,v2",
               "--reps", "2", "--trace-out", str(path)])
    assert rc == 0
    doc = json.loads(path.read_text())
    names = {
        e["args"]["name"]
        for e in doc["traceEvents"]
        if e.get("ph") == "M" and e["name"] == "process_name"
    }
    assert any(n.startswith("p4/1024B:") for n in names)
    assert any(n.startswith("v2/1024B:") for n in names)


def test_trace_command_with_timeline(tmp_path, capsys):
    import json

    path = tmp_path / "t.json"
    rc = main(["trace", "cg", "--class", "T", "-n", "2", "--faults", "1",
               "--fault-interval", "0.05", "--out", str(path), "--timeline"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "wrote" in out
    assert "downtime s" in out  # the injected fault shows up in the timeline
    assert json.loads(path.read_text())["traceEvents"]


def test_trace_command_jsonl(tmp_path, capsys):
    import json

    path = tmp_path / "t.jsonl"
    rc = main(["trace", "cg", "--class", "T", "-n", "2", "--out", str(path)])
    assert rc == 0
    lines = path.read_text().splitlines()
    assert lines and all(json.loads(ln)["kind"] for ln in lines)


def test_audit_command_clean_run_exits_zero(capsys):
    rc = main(["audit", "cg", "--class", "T", "-n", "2"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "audit verdict: clean" in out
    assert "waitlogged" in out and "gc-safety" in out


def test_audit_command_with_faults(capsys):
    rc = main(["audit", "cg", "--class", "T", "-n", "2", "--faults", "1",
               "--fault-interval", "0.05"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "audit verdict: clean" in out


def test_audit_command_writes_hb_and_json(tmp_path, capsys):
    import json

    hb_path = tmp_path / "hb.json"
    json_path = tmp_path / "audit.json"
    rc = main(["audit", "cg", "--class", "T", "-n", "2",
               "--hb-out", str(hb_path), "--json-out", str(json_path)])
    out = capsys.readouterr().out
    assert rc == 0
    hb = json.loads(hb_path.read_text())
    assert hb["nodes"] and hb["edges"]
    assert "happens-before graph" in out
    doc = json.loads(json_path.read_text())
    assert doc["verdict"] == "clean"
    assert doc["checks"]["waitlogged"] > 0


def test_kernel_audit_flag_prints_verdict(capsys):
    rc = main(["kernel", "cg", "--class", "T", "-n", "2", "--audit"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "audit verdict: clean" in out
    assert "Mop/s" in out  # the normal output is still there


def test_faulty_audit_flag_prints_verdict(capsys):
    rc = main(["faulty", "cg", "--class", "S", "-n", "4", "--faults", "1",
               "--audit"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "audit verdict: clean" in out


def test_pingpong_audit_flag_prints_per_run_verdicts(capsys):
    rc = main(["pingpong", "--sizes", "1024", "--devices", "p4,v2",
               "--reps", "2", "--audit"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "[p4/1024B]" in out and "[v2/1024B]" in out
    assert out.count("audit verdict: clean") == 2


def test_faulty_service_faults_and_partitions(capsys):
    rc = main(["faulty", "cg", "--class", "S", "-n", "4", "--faults", "0",
               "--service-faults", "el:0@0.3:0.5",
               "--partitions", "0.5:0.5:0+1", "--audit"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "audit verdict: clean" in out
    assert "outages:" in out
    assert "retries=" in out and "reconnects=" in out


def test_faulty_churn_plan(capsys):
    rc = main(["faulty", "cg", "--class", "S", "-n", "4", "--plan", "churn",
               "--faults", "1", "--mean-lifetime", "3.0", "--seed", "7"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "restarts" in out


def test_faulty_rejects_bad_partition_spec(capsys):
    rc = main(["faulty", "cg", "--class", "S", "-n", "2",
               "--partitions", "bogus"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "bad fault spec" in err


def test_faulty_parse_helpers():
    from repro.cli import _parse_partitions, _parse_service_faults

    assert _parse_partitions("1.5:2.0:0+3, 4:1:2") == [
        (1.5, (0, 3), 2.0), (4.0, (2,), 1.0)]
    assert _parse_service_faults("el:0@2.0:1.0,cs:0@3:0.5") == [
        (2.0, "el:0", 1.0), (3.0, "cs:0", 0.5)]


def test_stats_prefix_filter(capsys):
    rc = main(["stats", "cg", "--class", "T", "-n", "2", "--prefix", "el."])
    out = capsys.readouterr().out
    assert rc == 0
    assert "el.roundtrips" in out
    assert "senderlog.bytes" not in out  # filtered out of both tables


def test_stats_top_filter(capsys):
    rc = main(["stats", "cg", "--class", "T", "-n", "2", "--top", "3"])
    out = capsys.readouterr().out
    assert rc == 0
    # the totals table keeps only the 3 largest metrics; byte counters
    # dominate, so the small per-event counters must be gone
    totals = out.split("\n\n")[-1]
    assert len([ln for ln in totals.splitlines() if ln.strip()]) == 5
    assert "senderlog.ram_bytes" in totals


def test_profile_command_v2_with_critical_path(tmp_path, capsys):
    import json

    path = tmp_path / "prof.json"
    rc = main(["profile", "cg", "--class", "T", "-n", "2",
               "--json-out", str(path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "events/s" in out
    assert "service CPU decomposition" in out
    assert "critical path" in out and "el-ack" in out
    doc = json.loads(path.read_text())
    assert doc["events"] > 0
    assert doc["critical_path"]["span_s"] > 0


def test_profile_command_p4_skips_critical_path(capsys):
    rc = main(["profile", "cg", "--class", "T", "-n", "2", "--device", "p4"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "events/s" in out
    assert "critical path" not in out  # no hb graph outside v2


@pytest.mark.parametrize("interval, ts_out", [("0", True), ("-1", False)])
def test_mttr_rejects_bad_sample_interval(interval, ts_out, tmp_path, capsys):
    ts = tmp_path / "ts.jsonl"
    rc = main(["mttr", "cg", "--class", "T", "-n", "2", "--kill-at", "0.05:1",
               "--sample-interval", interval,
               *(["--timeseries-out", str(ts)] if ts_out else [])])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("repro: ") and "--sample-interval" in err
    assert not ts.exists()


def test_mttr_rejects_malformed_kill_schedule(capsys):
    rc = main(["mttr", "cg", "--class", "T", "-n", "2", "--kill-at", "1.0"])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("repro: bad fault spec")
