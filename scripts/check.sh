#!/bin/sh
# Repository check: build every package (so compile errors in packages
# without tests fail the check), verify formatting, vet everything, then
# run the concurrency-sensitive packages under the race detector. The
# engine's determinism guarantee (internal/engine) only holds if these
# stay race-clean, and the networked stack (client failover, the
# multiplexed transport and its demux reader, the server's handshake, its
# burst-serving read loop, drain, the chaos test, the metrics registry)
# is only trustworthy under -race. The connection layer runs at -cpu 1,4:
# the server serves every frame on one read loop per connection, into a
# corked writer, beside the gossip sweeper and the node's other
# connections, and how their work interleaves is the scheduler's choice.
# It runs once more with DMAP_POISON_BUFS=1: the read loop is where a
# request view into the reader's buffer, or a reply in a pooled one,
# could outlive its release. Running the wire tests also replays the
# checked-in fuzz seed corpus (FuzzDecodeFrame, FuzzDecodeFrameV2 et al.).
# The store rides the race pass for its packed table: a mapping's first NA
# and its further ones live in two maps under one shard lock, and
# TestReadersNeverSeeTwoVersions reads one GUID while a writer flips it
# between one NA and five; TestWarmBesideWriters runs Store.Warm, the
# batch frame's lookup-ahead, over a GUID set beside that writer and one
# that extracts and snapshots. The hot-key tracker (internal/trace) is one
# mutex over two parallel arrays, observed from every connection.
set -eux

cd "$(dirname "$0")/.."

go build ./...
# Outside Linux, wire's sockets read and write through the net package
# (sock_other.go): build for two such targets, so that fallback cannot
# rot unnoticed. Both build offline.
GOOS=darwin GOARCH=arm64 go build ./...
GOOS=windows go build ./...

# gofmt -l lists unformatted files; any output is a failure.
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

go vet ./...

# Exported API that no shipped code calls (ROADMAP aim 2): every name
# scripts/api.sh prints must be in scripts/api.allow with the reason it
# stays, and every name there must still be printed.
sh scripts/api.sh --check
# internal/prefixtable rides along: every client goroutine reads one
# table's flat index at once, which is only sound while Lookup writes
# nothing.
go test -race ./internal/prefixtable/... ./internal/core/... ./internal/engine/... ./internal/topology/...
go test -race ./internal/wire/... ./internal/simnet/... ./internal/nodesim/...
go test -race ./internal/server/... ./internal/metrics/... ./internal/obs/...
go test -race ./internal/trace/...
# The durable store on one P and on four: a burst commit write-locks
# every shard it spans, in index order, and then the log mutex, beside a
# compaction that rotates the log under that mutex and builds each
# shard's image under its read lock; which writer meets the compaction
# where is the scheduler's choice.
go test -race -cpu 1,4 ./internal/store/...

# The connection layer once more on a single P and on four: wire.Writer's
# flush policy (yield once, then drain) is scheduler-dependent, and one P
# is both the benchmark's configuration and the case where no goroutine
# can append while a Write is in flight — coalescing there rests on the
# yield alone, and so does the liveness of a lone frame. The server runs
# one read loop per connection, which corks the replies to every frame it
# serves and flushes once per drained read buffer: on one P and on four
# its replies leave in request order (asserted), and it never runs a
# second goroutine. -cpu 1 is GOMAXPROCS=1 spelled so that the test cache
# keys on it: set through the environment, this pass would be served from
# the pass above.
go test -race -cpu 1,4 ./internal/server/...
# The client and its connection, wire.Conn, on one P and on four: a
# K-replica operation starts every frame from the calling goroutine and
# takes the replies in place, so whether a reply is in its slot before
# finish looks (four Ps: the Conn's demux reader runs beside the caller)
# or after (one P: only once the caller blocks) is the scheduler's
# choice, and both orders must be exercised. The in-flight table, the
# watchdog and the reader are wire's; the gossip sweeper and the prober
# dial the same Conn.
go test -race -cpu 1,4 ./internal/client/... ./internal/wire/...
# The deadline watchdog (one time.AfterFunc per wire.Conn) runs on a
# goroutine of its own and races the demux reader for every request it
# expires, and fail for the timer: twenty rounds, at one P and at four,
# of the client's shared-connection tests.
go test -race -cpu 1,4 -count 20 -run 'TestMuxDeadline' ./internal/client
# The anti-entropy sweep (server.Node.Sweep over core.Sweep) on one P and
# on four, under both of its transports: the server's gossip goroutine
# over TCP beside its connections' read loops, and the simulated nodes'
# sweeps over simnet, one simnet process per peer, handed the run one at
# a time beside the handlers that answer them, plus the partition-heal
# experiment that times them.
go test -race -cpu 1,4 -run 'Sweep|Gossip|Heal' ./internal/core ./internal/nodesim ./internal/server ./internal/experiments
# The shipped client on nodesim's link, on one P and on four: lookups and
# writes scheduled with simnet's Go run as processes, each on a goroutine
# of its own, handed the run one at a time — a missing hand-off is a data
# race here, a wrong one a deadlock. churnsim runs thousands of them
# beside the churn, the mobility test races a write against a read. The
# frame table sends one set of frames to a TCP node, whose read loop
# serves them on its own goroutine, and to a simulated one, through the
# same server code. The figure-path test runs a figure's lookups on three
# engine workers at once: each worker's deployment sends its frames to
# the one node table every worker shares, whose nodes serve them side by
# side and are made on first use by whichever worker gets there first.
go test -race -cpu 1,4 -run 'Procs|Mobility|LiveTraffic|ThroughProtocol|NoGoroutine|RepeatsOnTheLink|FrameTable|BatchFramesMatch|FigurePath' ./internal/simnet ./internal/nodesim ./internal/experiments
# Every driver's output at workers 1, 0, 2, 3 and 7, compared whole: the
# engine's determinism guarantee, here with the figures' lookups on
# several workers' deployments over one shared node table.
go test -race ./internal/experiments/... -run 'DeterministicAcrossWorkers'

# The batch client's owner benchmark (batch_mobility's mix over a
# scripted transport, what the client side of that workload is profiled
# with), the figure path's (one Deployment.Lookup on nodesim's link,
# what every Fig. 4/5 lookup costs) and the DFZ build's (one full-scale
# Generate, what every world and bench set-up pays first) once each, so
# that they cannot rot unnoticed.
go test -run '^$' -bench '^BenchmarkBatchClient$' -benchtime 1x ./internal/client/
go test -run '^$' -bench '^BenchmarkFigureLookup$' -benchtime 1x ./internal/nodesim/
go test -run '^$' -bench '^BenchmarkGenerate$' -benchtime 1x ./internal/prefixtable/

# Crash-injection harness (DESIGN.md §10): a durable child node is
# SIGKILLed mid-write-burst at a seeded random point and restarted;
# every acknowledged write must be readable at its acked version. The
# WAL append, compactor and syncer all race the kill, so this runs
# under -race end to end.
go test -race ./internal/crashtest/

# Pool paths under load: the buffer-ownership refactor (DESIGN.md §9)
# recycles frame payloads, response slots and encode scratch through
# free lists, so a lifetime bug is a cross-goroutine race by
# construction. Hammer the mux (its deadline watchdog included) and the
# coalescing writer under -race with buffer poisoning on, so a buffer
# released while still referenced is overwritten with a sentinel instead
# of silently surviving. The fan-out tests ride along: a K-replica
# operation's request payload is resent by retries, so it must stay out
# of the pool until the last try is finished. So does the server's
# connection layer, at -cpu 1,4: one read loop per connection serves
# every frame that fits its wire.Reader's buffer from a view into it and
# a larger one from a pooled copy, single-op replies from one scratch
# buffer of its own and batch and repair replies from pooled ones. A
# reply that aliased a released buffer reads 0xA5, and the inline and
# cork tests check every reply's bytes, so a request view that outlived
# its Next reads the frames after it. The client's batch lookups ride
# along too: they decode each chunk's reply straight into the caller's
# entries and release the body, so an entry that kept a view into it
# reads 0xA5.
# -count=1 because TestMain reads the variable before the test log that
# the cache keys on is open: without it this pass is the unpoisoned one
# above, replayed.
DMAP_POISON_BUFS=1 go test -race \
    -run 'TestMux|TestConn|TestFanOut|TestWriter|TestReader|TestBufPool|TestAppend|TestDecodedValuesSurvive|TestReadFrame|LookupBatch|TestBatchChunking|TestReadWalksAskEachASOnce' \
    ./internal/client/... ./internal/wire/...
DMAP_POISON_BUFS=1 go test -count=1 -race -cpu 1,4 ./internal/server/...
# Batch frames are served from views into the reader's buffer too, so a
# batch decoder that kept one past the next Next would show here: the
# burst, cork, goroutine and idle tests twenty times over, poisoned.
DMAP_POISON_BUFS=1 go test -count 20 -race -cpu 1,4 -run 'Burst|Stranded|Corked|Goroutine|Idle' ./internal/server

# Fuzz smoke on the trace-context wire extension: ten seconds of live
# fuzzing over DecodeTraceContext (the seed corpus alone replays in the
# -race run above; this hunts new frames).
go test -run '^$' -fuzz '^FuzzDecodeTraceContext$' -fuzztime=10s ./internal/wire

# Fuzz smoke on the server's side of the handshake: whatever bytes a
# connection opens with, nothing but a well-formed hello may reach a
# handler or the admission limiter, at most one frame goes back, and the
# connection ends.
go test -run '^$' -fuzz '^FuzzServerFirstFrame$' -fuzztime=10s ./internal/server

# Fuzz smoke on the connection reader: for any byte stream cut into any
# chunks, wire.Reader must yield the frames and the final error
# ReadFrameIDInto yields on the unsplit stream. The corpus holds frames
# larger than the reader's 16 KiB buffer; bounding minimisation keeps
# the ten seconds on new inputs instead of on shrinking those.
go test -run '^$' -fuzz '^FuzzReaderChunking$' -fuzztime=10s -fuzzminimizetime=1s ./internal/wire

# Fuzz smoke on the prefix table: any announce / withdraw sequence must
# leave the flat index answering exactly what the trie walk and the
# brute-force model answer, and an emptied table must own no chunk.
go test -run '^$' -fuzz '^FuzzTableOps$' -fuzztime=10s ./internal/prefixtable

# Fuzz smoke on the durability decoders: WAL record replay must treat
# any byte soup as (at worst) a torn tail, and snapshot decode must
# reject corruption without panicking. Seed corpora replay in the -race
# run above; these hunt new inputs.
go test -run '^$' -fuzz '^FuzzDecodeWALRecord$' -fuzztime=10s ./internal/store
go test -run '^$' -fuzz '^FuzzLoadSnapshot$' -fuzztime=10s ./internal/store

# Fuzz smoke on the store's packed table (DESIGN.md §10): any sequence of
# puts that walk a GUID's NA count up and down, stale puts, deletes,
# extracts and reads must leave the store — at 1, 8 and 64 shards,
# memory-only and durable across a reopen — agreeing with a plain
# map[GUID]Entry on every read and on the dump's bytes, with the
# overflow map holding exactly the multi-homed GUIDs; and the warm op
# (Store.Warm over held, absent and duplicate GUIDs) must count what the
# model holds and move neither those nor a counter.
go test -run '^$' -fuzz '^FuzzStoreOps$' -fuzztime=10s ./internal/store

# Fuzz smoke on the anti-entropy repair frames (DESIGN.md §12): digest
# and diff payloads arrive from peers, so their decoders must reject
# any malformed page without panicking and round-trip canonically.
go test -run '^$' -fuzz '^FuzzDecodeRepairDigest$' -fuzztime=10s ./internal/wire
go test -run '^$' -fuzz '^FuzzDecodeRepairDiff$' -fuzztime=10s ./internal/wire

# Fuzz smoke on the fleet snapshot decoder (DESIGN.md §13): the
# collector feeds every scraped /debug/metrics body through
# DecodeSnapshot, so it must reject malformed telemetry without
# panicking and re-encode accepted input to a canonical fixed point.
go test -run '^$' -fuzz '^FuzzDecodeFleetSnapshot$' -fuzztime=10s ./internal/obs

# results/ is quoted by EXPERIMENTS.md and nothing else compares it: the
# golden test runs at test scale, and results/churnsim.txt carried a
# failing audit line for several PRs because its collision needs -scale
# 2000. availability.txt is A12's table, the shipped client's walk on the
# simulated link under failed nodes, loss and retries; baselines.txt is
# the same walk fault-free at mid scale, beside the comparators. The
# three take about a minute together.
sh scripts/results.sh --check churnsim availability baselines

# The examples are mains that go build only compiles: run each once, so
# that a change which stops one running fails here. All four take about
# a second.
for ex in examples/*/; do
    go run "./$ex" >/dev/null
done

# The benchmark driver (bench/) is a module of its own that compiles
# against internal/ packages; tier-1 neither builds nor tests it, so an
# internal API change that breaks it must fail here, not in the
# benchmark pipeline. -short skips the cluster smoke.
(cd bench && go vet ./... && go test -short ./...)

# The size of the tree (ROADMAP aim 2), informational.
sh scripts/loc.sh
