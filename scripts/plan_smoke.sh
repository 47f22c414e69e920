#!/usr/bin/env bash
# plan_smoke.sh — the loadmodel pipeline exercised end to end with the
# real binaries: the bursty builtin spec generated twice to a JSONL
# trace (byte-identical or fail — determinism is the spec's contract),
# lpserve booted on the planned geometry, lpplan predicting for it with
# constants read off that server's own stage histograms (-probe runs the
# steady builtin against it and scrapes /metrics around the run), lpload
# replaying the recorded trace open-loop against it, and the measured
# run compared to the prediction.
#
# CI bands are deliberately wider than E17's documented ones: a shared
# CI runner's latency tail is scheduler noise, so the hard gate is
# throughput (35%) plus run integrity (no errors, no partial, <5%
# rejects); put p99 gets a factor-4 gross-breakage check only. The
# accuracy claim lives in EXPERIMENTS.md E17, measured on a quiet host.
set -euo pipefail

DIR=$(mktemp -d /tmp/plan-smoke-XXXXXX)
BIN="$DIR/bin"
mkdir -p "$BIN"
PIDS=()
cleanup() {
    for p in "${PIDS[@]:-}"; do kill -9 "$p" 2>/dev/null || true; done
    rm -rf "$DIR"
}
trap cleanup EXIT

echo "== build"
go build -o "$BIN/lpserve" ./cmd/lpserve
go build -o "$BIN/lpload" ./cmd/lpload
go build -o "$BIN/lpplan" ./cmd/lpplan

SPEC=(-builtin bursty -rate 0.5 -dur 1500ms)
GEO=(-shards 4 -batch 32 -mailbox 256)
BW=2ms
ADDR=127.0.0.1:7431
CTRL=127.0.0.1:9431

echo "== trace byte-determinism (same spec+seed -> byte-identical JSONL)"
"$BIN/lpload" "${SPEC[@]}" -gen-only -trace-out "$DIR/t1.jsonl"
"$BIN/lpload" "${SPEC[@]}" -gen-only -trace-out "$DIR/t2.jsonl"
cmp "$DIR/t1.jsonl" "$DIR/t2.jsonl"
echo "trace: $(wc -c <"$DIR/t1.jsonl") bytes, byte-identical across runs"

echo "== boot lpserve on the planned geometry"
"$BIN/lpserve" -path "$DIR/kv.img" -addr "$ADDR" -metrics "$CTRL" \
    "${GEO[@]}" -batchwait "$BW" -cap $((1 << 15)) -maxops $((1 << 18)) \
    2>"$DIR/serve.log" &
PIDS+=($!)
for _ in $(seq 1 150); do
    if curl -sf "http://$CTRL/healthz" 2>/dev/null | grep -q '"serving"'; then
        break
    fi
    sleep 0.1
done
curl -sf "http://$CTRL/healthz" | grep -q '"serving"'

echo "== predict (calibrated from the server's stage histograms)"
curl -sf "http://$CTRL/healthz" | grep -q "\"addr\":\"$ADDR\""
"$BIN/lpplan" "${SPEC[@]}" "${GEO[@]}" -batchwait "$BW" -conns 4 \
    -probe "$CTRL" -json >"$DIR/plan.json"
grep -q '"source": "stages:'"$CTRL"'"' "$DIR/plan.json"

echo "== replay the recorded trace open-loop"
"$BIN/lpload" -addr "$ADDR" -trace-in "$DIR/t1.jsonl" -conns 4 \
    -interval 500ms -json >"$DIR/run.json"

echo "== compare predicted vs measured"
python3 - "$DIR/plan.json" "$DIR/run.json" <<'EOF'
import json, sys
plan = json.load(open(sys.argv[1]))
run = json.load(open(sys.argv[2]))

assert not run.get("partial"), "replay gave up mid-run"
assert run["errors"] == 0, f"{run['errors']} ops lost to connection failures"
assert run["total"]["reject_rate"] < 0.05, \
    f"reject rate {run['total']['reject_rate']:.3f} on an underloaded replay"

pthr, mthr = plan["total"]["ok_ops_s"], run["total"]["ok_ops_s"]
err = abs(pthr - mthr) / mthr
assert err < 0.35, f"throughput error {err:.1%}: predicted {pthr:.0f}, measured {mthr:.0f}"

pp99, mp99 = plan["total"]["put_p99_us"], run["total"]["put_p99_us"]
assert mp99 > 0, "no put latency measured"
ratio = max(pp99, mp99) / min(pp99, mp99)
assert ratio < 4, f"put p99 off by {ratio:.1f}x: predicted {pp99:.0f}us, measured {mp99:.0f}us"

names = [c["class"] for c in run["classes"]]
assert names == [c["class"] for c in plan["classes"]], "class sets diverge"
print(f"plan smoke OK: thr {pthr:.0f} pred / {mthr:.0f} live ({err:.1%}), "
      f"put p99 {pp99:.0f} pred / {mp99:.0f} live, classes {names}")
EOF

echo "PASS: plan smoke (deterministic trace + replay within the CI band)"
