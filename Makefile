# Convenience wrappers around dune; `make verify` is the one-shot
# pre-push check (build + tests + CLI smoke + bench + its gates).

.PHONY: all build test bench baseline chaos ledger \
  ledger-baseline analyze-baseline corpus mem-check verify clean

all: build

build:
	dune build

test:
	dune runtest

bench:
	dune exec bench/main.exe

# Refresh the committed bench baseline (run on an idle machine).
baseline:
	dune exec bench/main.exe -- --out=BENCH_obs.json \
	  --save-baseline=BENCH_history/baseline-bench.json

# Seeded fault-injection sweep; deterministic, so any failure is
# reproducible from the seed printed in the report.
chaos: build
	dune exec bin/tfiris_cli.exe -- chaos --seeds=50 --out=CHAOS_report.json

# The canonical ledger corpus: one run-ledger record per
# verdict-producing subcommand, over committed inputs only, so the
# content keys and verdicts are byte-stable across machines (wall times
# are the only thing that varies).  `tfiris report LEDGER.jsonl`
# summarises it; CI diffs a fresh corpus against the committed
# BENCH_history/baseline-ledger.jsonl and fails on verdict flips.  The
# paper's two divergent examples — `rec f x. f x` under $ω (§5) and
# `e_loop ⪯ skip` (§4.1) — are in it as rejections: they must exit 1,
# and the diff holds their verdicts.
LEDGER ?= LEDGER.jsonl

ledger: build
	rm -f $(LEDGER)
	dune exec bin/tfiris_cli.exe -- run examples/shl/memo_fib.shl --ledger=$(LEDGER)
	dune exec bin/tfiris_cli.exe -- run -e "1 + 2 * 3" --engine=lockstep --ledger=$(LEDGER)
	dune exec bin/tfiris_cli.exe -- run -e "let r = ref 0 in fork (r := 1); fork (r := !r + 1); !r" --domains=2 --ledger=$(LEDGER)
	dune exec bin/tfiris_cli.exe -- check-term -e "(rec f n. if n = 0 then 0 else f (n - 1)) 64" --ledger=$(LEDGER)
	dune exec bin/tfiris_cli.exe -- refine --target="1 + 2" --source="3 - 0" --ledger=$(LEDGER)
	dune exec bin/tfiris_cli.exe -- check-term -e "(rec f x. f x) 0" --ledger=$(LEDGER); test $$? -eq 1
	dune exec bin/tfiris_cli.exe -- refine --target="(rec loop f x. if f () then loop f x else ()) (fun u -> true) ()" --source="()" --ledger=$(LEDGER); test $$? -eq 1
	dune exec bin/tfiris_cli.exe -- analyze examples/shl/memo_fib.shl --ledger=$(LEDGER)
	dune exec bin/tfiris_cli.exe -- chaos --seeds=10 --ledger=$(LEDGER) --out=CHAOS_report.json
	dune exec bin/tfiris_cli.exe -- report $(LEDGER)

# Refresh the committed baseline ledger (after an intentional verdict
# or corpus change; the diff in CI explains itself otherwise).
ledger-baseline:
	$(MAKE) ledger LEDGER=BENCH_history/baseline-ledger.jsonl

# The committed analyzer golden: every finding over the shipped
# examples, in the stable JSON form (sorted, deduplicated, no
# timings), one line.  `make verify` and CI re-run the analyzer and
# diff byte-for-byte, so a new finding — or a silently lost one —
# fails loudly.  Refresh here after an intentional analyzer change and
# review the diff like any other golden.
analyze-baseline: build
	dune exec bin/tfiris_cli.exe -- analyze --format=json-stable \
	  examples/shl/*.shl > BENCH_history/baseline-analyze.json

# Incremental re-verification through the certificate cache: a cold
# sweep over the examples stores one certificate per (program, stage),
# the warm sweep must replay every lookup from disk, and `report
# --diff` holds the two ledgers to zero verdict flips — cached replay
# may be faster, never different.  Then every verdict command of
# `make ledger` runs cold, then warm, against one fresh cache: stdout
# and exit code must be byte-equal.  The cold sweep must leave no
# staging `*.tmp` file behind and commit every entry with mode 0644.
# `make corpus` is self-contained
# (fresh cache each time); point CACHE at a persistent directory to
# verify incrementally across source changes.
CACHE ?= .tfiris-cache
REPLAY_CACHE = .tfiris-replay-cache

corpus: build
	rm -rf $(CACHE) CORPUS_cold.jsonl CORPUS_warm.jsonl
	dune exec bin/tfiris_cli.exe -- verify-corpus examples/shl \
	  --cache=$(CACHE) --ledger=CORPUS_cold.jsonl
	@left=$$(find $(CACHE) -name '*.tmp'; \
	  find $(CACHE) -type f -name '*.json' ! -perm 0644); \
	  test -z "$$left" || { echo "cold sweep left staging files or entries not 0644:"; \
	    echo "$$left"; exit 1; }
	dune exec bin/tfiris_cli.exe -- verify-corpus examples/shl \
	  --cache=$(CACHE) --ledger=CORPUS_warm.jsonl --min-hit-rate=100
	dune exec bin/tfiris_cli.exe -- report --diff CORPUS_cold.jsonl CORPUS_warm.jsonl
	dune exec bin/tfiris_cli.exe -- cache stats --cache=$(CACHE)
	rm -rf $(REPLAY_CACHE)
	@replay() { \
	  for pass in cold warm; do \
	    dune exec bin/tfiris_cli.exe -- "$$@" --cache=$(REPLAY_CACHE) \
	      > .replay.$$pass 2>/dev/null; \
	    echo "exit $$?" >> .replay.$$pass; \
	  done; \
	  cmp .replay.cold .replay.warm || { echo "warm differs from cold: $$*"; exit 1; }; \
	  echo "replay ok: $$*"; \
	}; \
	replay run examples/shl/memo_fib.shl && \
	replay run -e "1 + 2 * 3" --engine=lockstep && \
	replay run -e "let r = ref 0 in fork (r := 1); fork (r := !r + 1); !r" --domains=2 && \
	replay check-term -e "(rec f n. if n = 0 then 0 else f (n - 1)) 64" && \
	replay refine --target="1 + 2" --source="3 - 0" && \
	replay check-term -e "(rec f x. f x) 0" && \
	replay refine --target="(rec loop f x. if f () then loop f x else ()) (fun u -> true) ()" --source="()" && \
	replay analyze examples/shl/memo_fib.shl && \
	replay analyze examples/shl/memo_fib.shl --format=json-stable
	rm -rf $(REPLAY_CACHE) .replay.cold .replay.warm

# The memory figures of the time-to-verdict benchmark
# (bench/verdicts/README.md), one 2-second run per workload:
# allocated words per verdict and the peak major heap.  Both are
# deterministic for a given checkout (the same on every seed and every
# run: `drivers`' exploration jobs run on one domain), and the
# peak moves in whole 4096-word (32 KB) major-heap pools, so a change
# that adds a pool to some workload's heaviest job shows here in about
# 15 s, before any timed comparison.  Informational, not a gate.
# Last, from the runtime's exit report, the words one credit-game
# verdict allocates end to end (fib 15, 8878 steps), which follows the
# per-step cost of the machine and its β-rule, and the words
# `tfiris --version` allocates, which is what every process spends on
# start-up (module initialisers and argument parsing) before its job.
MEM_WORKLOADS = corpus-cold corpus-warm drivers ordinal
FIB15 = (rec fib n. if n < 2 then n else fib (n - 1) + fib (n - 2)) 15
ALLOCATED_WORDS = awk '/^allocated_words:/ { found = 1; \
	  printf "  %-40s %12s words\n", "allocated_words", $$2 } \
	  END { exit !found }'

mem-check:
	dune build bin/tfiris_cli.exe bench/verdicts/verdicts.exe
	@for w in $(MEM_WORKLOADS); do \
	  _build/default/bench/verdicts/verdicts.exe run --workload=$$w --seconds=2 \
	    | grep -E '^(run |  alloc_words_per_verdict |  peak_heap_mb )' \
	    || exit 1; \
	done
	@echo "check-term fib 15 --credits w"
	@OCAMLRUNPARAM=v=0x400 _build/default/bin/tfiris_cli.exe check-term \
	  -e "$(FIB15)" --credits w 2>&1 >/dev/null | $(ALLOCATED_WORDS)
	@echo "tfiris --version"
	@OCAMLRUNPARAM=v=0x400 _build/default/bin/tfiris_cli.exe --version \
	  2>&1 >/dev/null | $(ALLOCATED_WORDS)

# The bench gates work counters exactly (they are deterministic).
# The perf and memory gates compare against a baseline usually
# recorded on a different machine, so both thresholds are fixed and
# deliberately loose (4x).  `dune runtest` (via `test`) includes the
# concurrent-ledger-append test, whose two writers are forked processes
# appending to one ledger, as corpus shards do.
# The 3-thread CAS counter of the time-to-verdict benchmark's `drivers`
# jobs: `verify` explores it as those jobs do (`run --domains=2`) and
# diffs the stdout (sorted finals, reduced state count) against the
# expected two lines.
CAS3_EXPECTED = final: 3\nstates: 1311\n
CAS3 = let c = ref 0 in let d = ref 0 in let inc = rec retry u. let v = !c in if cas c v (v + 1) then () else retry u in let finish = rec retry u. let w = !d in if cas d w (w + 1) then () else retry u in fork (inc (); finish ()); fork (inc (); finish ()); fork (inc (); finish ()); (rec wait u. if !d = 3 then !c else wait u) ()

verify: build test
	dune exec bin/tfiris_cli.exe -- run --stats --metrics --gc -e "let r = ref 0 in r := 41; !r + 1"
	dune exec bin/tfiris_cli.exe -- run --domains=2 -e "$(CAS3)" > EXPLORE.txt
	printf '$(CAS3_EXPECTED)' | diff -u - EXPLORE.txt
	dune exec bin/tfiris_cli.exe -- run examples/shl/memo_fib.shl \
	  --gc=TELEMETRY.json
	dune exec bin/tfiris_cli.exe -- analyze --fail-on=error examples/shl/*.shl
	dune exec bin/tfiris_cli.exe -- analyze --format=json-stable \
	  examples/shl/*.shl > ANALYZE.json
	diff -u BENCH_history/baseline-analyze.json ANALYZE.json
	dune exec bin/tfiris_cli.exe -- profile --collapsed=PROFILE.collapsed -- \
	  run examples/shl/memo_fib.shl
	dune exec bin/tfiris_cli.exe -- chaos --seeds=10 --out=CHAOS_report.json
	$(MAKE) corpus
	dune exec bench/main.exe -- --out=BENCH_obs.json \
	  --compare=BENCH_history/baseline-bench.json
	@echo "verify: OK"

clean:
	dune clean
