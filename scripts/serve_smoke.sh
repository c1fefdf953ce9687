#!/usr/bin/env bash
# End-to-end smoke test for cmd/cmpserve on a real TCP socket:
#
#   1. generate a small Function-2 store and train a CMP-B model
#   2. start cmpserve on an ephemeral port (parsed from its stderr)
#   3. poll /readyz until the model is serving
#   4. score a golden batch twice and assert the answers are identical
#      (and carry class names + a model version)
#   5. score the batch's first record alone, plain and with a chunked body
#      (same class as in the batch, byte-identical answers), and check that
#      malformed bodies and null elements get 400
#   6. check /metrics exposes the serve block
#   7. SIGTERM the daemon and assert it drains to exit 0 within the budget
#
# Run via `make serve-smoke` or directly: bash scripts/serve_smoke.sh
set -euo pipefail

cd "$(dirname "$0")/.."
WORK=$(mktemp -d)
SERVE_PID=""
cleanup() {
  [ -n "$SERVE_PID" ] && kill -9 "$SERVE_PID" 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

DRAIN_BUDGET=10 # seconds; must cover flushing an idle queue with room to spare

echo "== build =="
go build -o "$WORK/cmpgen" ./cmd/cmpgen
go build -o "$WORK/cmptrain" ./cmd/cmptrain
go build -o "$WORK/cmpserve" ./cmd/cmpserve

echo "== train =="
"$WORK/cmpgen" -func 2 -n 20000 -seed 1 -out "$WORK/f2.rec"
"$WORK/cmptrain" -algo cmp-b -data "$WORK/f2.rec" -quiet -save "$WORK/model.json"

echo "== start =="
"$WORK/cmpserve" -model "$WORK/model.json" -addr 127.0.0.1:0 \
  -drain "${DRAIN_BUDGET}s" -metrics-json "$WORK/serve_metrics.json" \
  2>"$WORK/serve.log" &
SERVE_PID=$!

# The daemon logs "listening on 127.0.0.1:PORT" before loading the model.
ADDR=""
for _ in $(seq 1 100); do
  ADDR=$(sed -n 's/^cmpserve: listening on \(.*\)$/\1/p' "$WORK/serve.log" | head -1)
  [ -n "$ADDR" ] && break
  kill -0 "$SERVE_PID" 2>/dev/null || { echo "FAIL: daemon died at startup"; cat "$WORK/serve.log"; exit 1; }
  sleep 0.1
done
[ -n "$ADDR" ] || { echo "FAIL: never saw the listen address"; cat "$WORK/serve.log"; exit 1; }
BASE="http://$ADDR"
echo "daemon at $BASE (pid $SERVE_PID)"

echo "== readyz =="
READY=0
for _ in $(seq 1 100); do
  if curl -fsS "$BASE/readyz" >/dev/null 2>&1; then READY=1; break; fi
  sleep 0.1
done
[ "$READY" = 1 ] || { echo "FAIL: /readyz never went 200"; cat "$WORK/serve.log"; exit 1; }

echo "== golden batch =="
# Two 9-attribute Agrawal records (salary, commission, age, elevel, car,
# zipcode, hvalue, hyears, loan).
BATCH='{"records":[[60000,0,45,2,5,3,300000,10,100000],[30000,50000,25,1,2,7,500000,20,400000]]}'
curl -fsS -X POST -d "$BATCH" "$BASE/predict/batch" >"$WORK/out1.json"
curl -fsS -X POST -d "$BATCH" "$BASE/predict/batch" >"$WORK/out2.json"
cmp "$WORK/out1.json" "$WORK/out2.json" || {
  echo "FAIL: identical batches scored differently"; cat "$WORK/out1.json" "$WORK/out2.json"; exit 1; }
grep -q '"classes":\["Group' "$WORK/out1.json" || {
  echo "FAIL: batch response lacks class names"; cat "$WORK/out1.json"; exit 1; }
grep -q '"model_version":1' "$WORK/out1.json" || {
  echo "FAIL: batch response lacks model_version 1"; cat "$WORK/out1.json"; exit 1; }
echo "batch answer: $(cat "$WORK/out1.json")"

echo "== single record =="
SINGLE='{"values":[60000,0,45,2,5,3,300000,10,100000]}'
curl -fsS -X POST -d "$SINGLE" "$BASE/predict" >"$WORK/single.json"
curl -fsS -X POST -H 'Transfer-Encoding: chunked' --data-binary "$SINGLE" "$BASE/predict" >"$WORK/chunked.json"
cmp "$WORK/single.json" "$WORK/chunked.json" || {
  echo "FAIL: chunked body scored differently"; cat "$WORK/single.json" "$WORK/chunked.json"; exit 1; }
BATCH_FIRST=$(sed -n 's/^{"classes":\["\([^"]*\)".*/\1/p' "$WORK/out1.json")
SINGLE_CLASS=$(sed -n 's/^{"class":"\([^"]*\)".*/\1/p' "$WORK/single.json")
[ -n "$SINGLE_CLASS" ] && [ "$SINGLE_CLASS" = "$BATCH_FIRST" ] || {
  echo "FAIL: /predict class '$SINGLE_CLASS' != batch's first class '$BATCH_FIRST'"; cat "$WORK/single.json"; exit 1; }
echo "single answer: $(cat "$WORK/single.json")"
for BAD in '{"values":[1,]}' '{"values":[60000,null,45,2,5,3,300000,10,100000]}'; do
  CODE=$(curl -sS -o "$WORK/bad.json" -w '%{http_code}' -X POST -d "$BAD" "$BASE/predict")
  [ "$CODE" = 400 ] || { echo "FAIL: $BAD got $CODE, want 400"; cat "$WORK/bad.json"; exit 1; }
done

echo "== metrics =="
curl -fsS "$BASE/metrics" >"$WORK/metrics.json"
grep -q '"serve"' "$WORK/metrics.json" || { echo "FAIL: /metrics lacks the serve block"; exit 1; }
grep -q '"model_version": 1' "$WORK/metrics.json" || { echo "FAIL: serve block lacks model_version"; exit 1; }

echo "== drain =="
kill -TERM "$SERVE_PID"
EXIT_CODE=-1
for _ in $(seq 1 $((DRAIN_BUDGET * 10))); do
  if ! kill -0 "$SERVE_PID" 2>/dev/null; then
    wait "$SERVE_PID" && EXIT_CODE=0 || EXIT_CODE=$?
    break
  fi
  sleep 0.1
done
SERVE_PID=""
[ "$EXIT_CODE" = 0 ] || {
  echo "FAIL: daemon exit code $EXIT_CODE (want 0 within ${DRAIN_BUDGET}s)"; cat "$WORK/serve.log"; exit 1; }
grep -q '"model_version": 1' "$WORK/serve_metrics.json" || {
  echo "FAIL: shutdown metrics report lacks a filled serve block"; exit 1; }

echo "serve smoke: OK"
