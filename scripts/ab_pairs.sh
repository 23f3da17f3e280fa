#!/usr/bin/env bash
# Compares two checkouts on one surveybench workload by alternating pairs.
#
# Usage: scripts/ab_pairs.sh PARENT_DIR CHANGE_DIR WORKLOAD SEED [PAIRS] [SECONDS]
#
# Builds each checkout's surveybench once (--release --offline), then runs
# PAIRS pairs (default 10) of SECONDS-long runs (default 10, the benchmark's
# run length), the parent first in odd pairs and the change first in even
# ones. Each run's last output line is its JSON result, read with jq. The
# script prints every run's end-to-end metrics, each side's median and
# quartiles per metric, how many pairs the change won on images_per_s (ties
# count for neither side), and the verdict on a gain: at least ten pairs, the
# change winning at least nine in ten, and its median beating the parent's by
# more than the parent's interquartile range. It then prints one
# no-regression verdict per end-to-end metric, reading each metric's `better`
# and `bound` from the change checkout's BENCHMARK.json: WORSE when the
# change's median is worse than the parent's by more than the bound (a
# fraction of the parent's median); UNRESOLVED when the parent's own
# interquartile range is wider than that bound and not every change run
# beats every parent run; OK otherwise.
#
# Exit status: 0 when every pass of every run was correct, whatever the
# verdict; 1 when a run exits nonzero or reports an incorrect or failed pass;
# 2 on a usage or build error, or when jq is missing. Nothing in either
# checkout is edited; the builds go to each checkout's usual target directory
# (or CARGO_TARGET_DIR, which the two sides may share).
set -euo pipefail

die() {
    echo "ab_pairs: $*" >&2
    exit 2
}

[[ $# -ge 4 && $# -le 6 ]] ||
    die "usage: $0 PARENT_DIR CHANGE_DIR WORKLOAD SEED [PAIRS] [SECONDS]"
command -v jq >/dev/null || die "jq is required to read the runs' JSON results; install jq"
PARENT="$(cd "$1" && pwd)" || die "no directory $1"
CHANGE="$(cd "$2" && pwd)" || die "no directory $2"
WORKLOAD=$3 SEED=$4 PAIRS=${5:-10} RUN_SECONDS=${6:-10}
[[ $PAIRS =~ ^[1-9][0-9]*$ ]] || die "PAIRS must be a positive integer, not $PAIRS"
BENCH="$CHANGE/BENCHMARK.json"
jq -e '.end_to_end | length > 0' "$BENCH" >/dev/null 2>&1 ||
    die "$BENCH names no end-to-end metrics"

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

# build SIDE DIR: builds DIR's harness and copies the executable to
# $WORK/SIDE, so a shared CARGO_TARGET_DIR cannot mix the two sides up.
build() {
    local exe
    echo "==> building $1 surveybench in $2"
    exe="$(cargo build --release --offline --quiet --message-format=json \
        --manifest-path "$2/surveybench/Cargo.toml" |
        jq -r 'select(.reason == "compiler-artifact" and .target.name == "surveybench")
               | .executable // empty')" || die "building $2/surveybench failed"
    [[ -n $exe ]] || die "cargo reported no surveybench executable for $2"
    cp "$exe" "$WORK/$1"
}
build parent "$PARENT"
build change "$CHANGE"

# run SIDE DIR PAIR: one run from DIR's root; its result joins runs.jsonl.
failed=0
run() {
    local out="$WORK/$1-$3.txt" status=0 result
    (cd "$2" && "$WORK/$1" --workload "$WORKLOAD" --seed "$SEED" \
        --seconds "$RUN_SECONDS" --trace 0) >"$out" || status=$?
    result="$(tail -n 1 "$out")"
    if [[ $status -ne 0 ]] ||
        ! jq -e '.correct == true and .failed == 0' <<<"$result" >/dev/null 2>&1; then
        echo "ab_pairs: pair $3, $1: exit $status, result: $result" >&2
        failed=1
        return
    fi
    jq -c --arg side "$1" --argjson pair "$3" \
        '{pair: $pair, side: $side, metrics: (.metrics | map_values(.value))}' \
        <<<"$result" >>"$WORK/runs.jsonl"
    jq -r --arg side "$1" --argjson pair "$3" \
        '"  pair \($pair) \($side): " + (.metrics | to_entries
         | map("\(.key) \(.value.value)") | join(", "))' <<<"$result"
}

echo "==> $PAIRS pairs of $WORKLOAD at seed $SEED, ${RUN_SECONDS} s per run"
for ((pair = 1; pair <= PAIRS; pair++)); do
    if ((pair % 2 == 1)); then
        run parent "$PARENT" "$pair"
        run change "$CHANGE" "$pair"
    else
        run change "$CHANGE" "$pair"
        run parent "$PARENT" "$pair"
    fi
done
[[ $failed -eq 0 ]] || {
    echo "ab_pairs: a run failed; no verdict" >&2
    exit 1
}

jq -rs --slurpfile bench "$BENCH" '
    def quantile($p): sort as $s | (($s | length) - 1) as $n | ($n * $p) as $h
        | ($h | floor) as $i
        | $s[$i] + (if $i < $n then ($h - $i) * ($s[$i + 1] - $s[$i]) else 0 end);
    def stats: {q1: quantile(0.25), median: quantile(0.5), q3: quantile(0.75)};
    def side($name): map(select(.side == $name)) | sort_by(.pair);
    def fmt: if fabs >= 1 then (. * 1000 | round / 1000 | tostring) else tostring end;
    side("parent") as $parent | side("change") as $change
    | ($parent[0].metrics | keys) as $names
    | ($parent | map(.metrics.images_per_s)) as $p
    | ($change | map(.metrics.images_per_s)) as $c
    | ([range($p | length) | select($c[.] > $p[.])] | length) as $wins
    | ([range($p | length) | select($c[.] == $p[.])] | length) as $ties
    | ($p | stats) as $ps | ($c | stats) as $cs
    | ($ps.q3 - $ps.q1) as $iqr | ($cs.median - $ps.median) as $gap
    | (($p | length) >= 10 and $wins * 10 >= ($p | length) * 9) as $enough
    | "==> per pair (images_per_s, parent -> change)",
      (range($p | length) | "  pair \(. + 1): \($p[.] | fmt) -> \($c[.] | fmt)"),
      "==> medians [quartiles], parent -> change",
      ($names[] as $m
       | ($parent | map(.metrics[$m]) | stats) as $a
       | ($change | map(.metrics[$m]) | stats) as $b
       | "  \($m): \($a.median | fmt) [\($a.q1 | fmt), \($a.q3 | fmt)]"
         + " -> \($b.median | fmt) [\($b.q1 | fmt), \($b.q3 | fmt)]"
         + (if $a.median != 0 then ", x\($b.median / $a.median * 1000 | round / 1000)"
            else "" end)),
      "==> change won \($wins)/\($p | length) pairs on images_per_s (\($ties) ties)",
      "==> median gap \($gap | fmt) img/s against parent IQR \($iqr | fmt)",
      if $enough and $gap > $iqr
      then "==> verdict: GAIN (at least 10 pairs, 9/10 of them won, and a median gap above the parent IQR)"
      else "==> verdict: NO GAIN (" + ([
          (if ($p | length) >= 10 then empty else "\($p | length) pairs, fewer than 10" end),
          (if $wins * 10 >= ($p | length) * 9 then empty
           else "won \($wins)/\($p | length) pairs, fewer than 9/10" end),
          (if $gap > $iqr then empty
           else "median gap \($gap | fmt) is not above the parent IQR \($iqr | fmt)" end)
        ] | join("; ")) + ")"
      end,
      "==> no regression, per end-to-end metric (bound from BENCHMARK.json)",
      ($bench[0].end_to_end[] as {name: $m, better: $better, bound: $bound}
       | if ($parent[0].metrics | has($m)) | not then "  \($m): not reported"
         else
           ($parent | map(.metrics[$m])) as $a | ($change | map(.metrics[$m])) as $b
           | ($a | stats) as $old | ($b | stats) as $new
           | (if $better == "higher" then 1 else -1 end) as $sign
           | (($old.median - $new.median) * $sign) as $worse
           | ($bound * ($old.median | fabs)) as $room
           | (if $sign > 0 then ($b | min) > ($a | max) else ($b | max) < ($a | min) end)
             as $beats
           | (if $worse > $room then "WORSE"
              elif ($old.q3 - $old.q1) > $room and ($beats | not) then "UNRESOLVED"
              else "OK" end) as $verdict
           | "  \($m) (\($better) is better, bound \($bound * 100)%): \($verdict), median "
             + "\($old.median | fmt) -> \($new.median | fmt), parent IQR \($old.q3 - $old.q1 | fmt)"
         end)
' "$WORK/runs.jsonl"
