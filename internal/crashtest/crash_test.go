// Package crashtest proves the store's durability claim end to end: a
// real dmap node (child process, real TCP, durable store) is SIGKILLed
// mid-write-burst at a randomized point, restarted, and every
// acknowledged insert/update must be readable at (at least) its acked
// version. The kill point is seeded and logged so a failure reproduces
// with DMAP_CRASH_SEED; without it the harness runs a fixed seed set,
// with all GUIDs on one shard and with GUIDs spread over every shard.
// Over that set some restarts must find both log segments holding
// records (a kill inside a compaction, which the child's small snapshot
// threshold makes common) and some a torn final record (which the
// harness writes itself after some kills: see tearLog).
//
// The ack-durability contract under test: the server writes the WAL
// record (a completed write(2), which survives SIGKILL under any fsync
// policy) before it acknowledges, so an ack the client observed implies
// the write is recoverable.
package crashtest

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dmap/internal/core"
	"dmap/internal/guid"
	"dmap/internal/netaddr"
	"dmap/internal/prefixtable"
	"dmap/internal/server"
	"dmap/internal/store"

	"dmap/internal/client"
)

func TestMain(m *testing.M) {
	if os.Getenv("DMAP_CRASH_CHILD") == "1" {
		runChild()
		return
	}
	os.Exit(m.Run())
}

// runChild is the process under test: a durable node serving real
// traffic until the parent SIGKILLs it. It prints its bound address, what
// recovery found, and whether both log segments held records when it
// started — the state a kill inside a compaction leaves — and then
// blocks forever: the only way out is the kill.
func runChild() {
	dir := os.Getenv("DMAP_CRASH_DIR")
	both := segmentHoldsRecords(dir, 0) && segmentHoldsRecords(dir, 1)
	st, err := store.Open(store.Options{
		Dir: dir,
		// A shard's share of the log this small compacts every dozen or
		// so records on a shard, so compactions overlap the bursts and
		// some kills land inside one.
		SnapshotBytes: 1 << 10,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "child:", err)
		os.Exit(1)
	}
	n := server.NewWithOptions(st, server.Options{})
	addr, err := n.Start("127.0.0.1:0")
	if err != nil {
		fmt.Fprintln(os.Stderr, "child:", err)
		os.Exit(1)
	}
	rec := n.Store().Recovery()
	fmt.Printf("ADDR %s replayed=%d snapshot=%d torn=%d both=%t\n",
		addr, rec.ReplayedRecords, rec.SnapshotEntries, rec.TornBytes, both)
	select {}
}

// The store's log layout, as far as this harness reads it (DESIGN.md
// §10): two segment files, each a header then framed records.
const (
	logHeaderLen = 4 + 1 + 4 + 4 // "DLOG" ‖ version ‖ shardCount ‖ generation
	logGenAt     = 9             // the generation's offset in the header
	recHeaderLen = 4 + 4         // crc ‖ bodyLen
)

// segmentPath is the file of dir's log segment k (0 or 1).
func segmentPath(dir string, k int) string {
	return filepath.Join(dir, fmt.Sprintf("log-%d.wal", k))
}

// segmentHoldsRecords reports whether dir's log segment k holds more than
// its header: a retired segment is empty, a fresh one a header alone.
func segmentHoldsRecords(dir string, k int) bool {
	fi, err := os.Stat(segmentPath(dir, k))
	return err == nil && fi.Size() > logHeaderLen
}

type child struct {
	cmd  *exec.Cmd
	addr string
	torn int64
	both bool // both log segments held records at start
}

func startChild(t *testing.T, dir string) *child {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "DMAP_CRASH_CHILD=1", "DMAP_CRASH_DIR="+dir)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(stdout)
	if !sc.Scan() {
		cmd.Process.Kill()
		cmd.Wait()
		t.Fatalf("child produced no address line: %v", sc.Err())
	}
	line := sc.Text()
	fields := strings.Fields(line)
	if len(fields) < 2 || fields[0] != "ADDR" {
		cmd.Process.Kill()
		cmd.Wait()
		t.Fatalf("unexpected child line %q", line)
	}
	c := &child{cmd: cmd, addr: fields[1]}
	for _, f := range fields[2:] {
		if v, ok := strings.CutPrefix(f, "torn="); ok {
			c.torn, _ = strconv.ParseInt(v, 10, 64)
		}
		if v, ok := strings.CutPrefix(f, "both="); ok {
			c.both = v == "true"
		}
	}
	t.Logf("child up at %s (%s)", c.addr, strings.Join(fields[2:], " "))
	t.Cleanup(func() { c.kill() })
	return c
}

func (c *child) kill() {
	if c.cmd.Process != nil {
		c.cmd.Process.Kill()
	}
	c.cmd.Wait()
}

// newClient returns a cluster client for the single-AS world the child
// serves (AS 0 owns the whole address space, K=1).
func newClient(t *testing.T, addr string) *client.Cluster {
	t.Helper()
	tbl := prefixtable.New()
	p, err := netaddr.NewPrefix(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.Announce(p, 0); err != nil {
		t.Fatal(err)
	}
	resolver, err := core.NewResolver(guid.MustHasher(1, 0), tbl, 0)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := client.NewWithConfig(resolver, map[int]string{0: addr}, client.Config{Timeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	return cl
}

const (
	crashGUIDs   = 256
	crashWriters = 4
)

// crashGUID returns GUID i of a case. FromUint64's GUIDs start with 12
// zero bytes, so all of them sit on shard 0 of the child's 8-shard store;
// spread ones hash the index, so every burst spans several shards and
// every compaction images several.
func crashGUID(spread bool, i int) guid.GUID {
	if spread {
		return guid.New("crash-" + strconv.Itoa(i))
	}
	return guid.FromUint64(uint64(i + 1))
}

// crashSeeds is the harness's fixed seed set; DMAP_CRASH_SEED runs one
// seed instead.
var crashSeeds = []int64{1, 2, 3, 4, 5, 6}

// TestCrashRecovery is the harness, for GUIDs on one shard and for GUIDs
// spread over every shard, at each seed: several rounds of (restart child
// → verify every previously acked write → concurrent write burst →
// SIGKILL at a random acked-op count), then a final restart + verify.
func TestCrashRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns and kills child processes")
	}
	seeds := crashSeeds
	if env := os.Getenv("DMAP_CRASH_SEED"); env != "" {
		v, err := strconv.ParseInt(env, 10, 64)
		if err != nil {
			t.Fatalf("DMAP_CRASH_SEED: %v", err)
		}
		seeds = []int64{v}
	}
	for _, spread := range []bool{false, true} {
		name := "shard0"
		if spread {
			name = "spread"
		}
		t.Run(name, func(t *testing.T) {
			var both, torn int
			for _, seed := range seeds {
				b, n := crashRounds(t, seed, spread)
				both, torn = both+b, torn+n
			}
			t.Logf("restarts that found both segments holding records: %d; a torn tail: %d", both, torn)
			if len(seeds) > 1 && (both == 0 || torn == 0) {
				t.Errorf("over the fixed seed set, %d restarts found both segments holding records and %d a torn tail; want at least one of each", both, torn)
			}
		})
	}
}

// crashRounds runs the harness at one seed and returns how many restarts
// found both log segments holding records, and how many a torn tail.
func crashRounds(t *testing.T, seed int64, spread bool) (both, torn int) {
	t.Helper()
	t.Logf("seed %d (set DMAP_CRASH_SEED=%d to reproduce)", seed, seed)
	rng := rand.New(rand.NewSource(seed))

	dir := t.TempDir()
	var (
		mu    sync.Mutex
		acked = make(map[guid.GUID]uint64) // max acked version per GUID
	)
	// Version numbers are issued per GUID, strictly increasing across
	// rounds (§III-D2: freshest wins).
	var versions [crashGUIDs]atomic.Uint64
	restart := func() (*child, *client.Cluster) {
		c := startChild(t, dir)
		if c.both {
			both++
		}
		if c.torn > 0 {
			torn++
		}
		return c, newClient(t, c.addr)
	}

	const rounds = 3
	for round := 0; round < rounds; round++ {
		c, cl := restart()
		verifyAcked(t, cl, acked, fmt.Sprintf("seed %d round %d pre-burst", seed, round))
		killAfter := 100 + rng.Intn(400)
		t.Logf("seed %d round %d: killing after %d acked ops", seed, round, killAfter)

		var (
			ackedOps atomic.Int64
			stop     atomic.Bool
			wg       sync.WaitGroup
		)
		for w := 0; w < crashWriters; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				wrng := rand.New(rand.NewSource(seed + int64(w) + 1))
				for !stop.Load() {
					i := wrng.Intn(crashGUIDs)
					g := crashGUID(spread, i)
					v := versions[i].Add(1)
					e := store.Entry{
						GUID:    g,
						NAs:     []store.NA{{AS: 0, Addr: netaddr.Addr(uint32(v))}},
						Version: v,
						Meta:    uint32(w),
					}
					acks, err := cl.Insert(e)
					if err != nil || acks < 1 {
						continue // unacked: no durability promise
					}
					mu.Lock()
					if v > acked[g] {
						acked[g] = v
					}
					mu.Unlock()
					ackedOps.Add(1)
				}
			}(w)
		}
		for ackedOps.Load() < int64(killAfter) {
			time.Sleep(time.Millisecond)
		}
		c.kill() // SIGKILL mid-burst
		stop.Store(true)
		wg.Wait()
		t.Logf("seed %d round %d: killed after %d acked ops", seed, round, ackedOps.Load())
		if rng.Intn(2) == 0 {
			tearLog(t, dir, rng)
		}
	}

	_, cl := restart()
	verifyAcked(t, cl, acked, fmt.Sprintf("seed %d final", seed))
	return both, torn
}

// tearLog appends to the segment taking appends a prefix of its last
// record: the tail a write(2) leaves when the kill lands between two of
// its pages. A SIGKILL cannot tear a record written by a write(2) that
// stays within one page, which every record of this harness's bursts
// does, so the harness tears the tail itself, after some kills.
func tearLog(t *testing.T, dir string, rng *rand.Rand) {
	t.Helper()
	var path string
	var log []byte
	gen := uint32(0)
	for k := 0; k < 2; k++ {
		p := segmentPath(dir, k)
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if len(b) >= logHeaderLen && (log == nil || binary.BigEndian.Uint32(b[logGenAt:]) > gen) {
			path, log, gen = p, b, binary.BigEndian.Uint32(b[logGenAt:])
		}
	}
	last := -1
	for at := logHeaderLen; at+recHeaderLen <= len(log); at += recHeaderLen + int(binary.BigEndian.Uint32(log[at+4:])) {
		last = at
	}
	if last < 0 {
		return // no record to tear a copy of
	}
	rec := log[last:]
	torn := rec[:1+rng.Intn(len(rec)-1)]
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write(torn); err != nil {
		t.Fatal(err)
	}
	t.Logf("tore %s: %d bytes of a %d-byte record appended", filepath.Base(path), len(torn), len(rec))
}

// verifyAcked asserts every acknowledged write is readable at (at
// least) its acked version — the §III-D2 guarantee a restarted replica
// must uphold before rejoining.
func verifyAcked(t *testing.T, cl *client.Cluster, acked map[guid.GUID]uint64, phase string) {
	t.Helper()
	var e store.Entry
	e.NAs = make([]store.NA, 0, store.MaxNAs)
	missing, stale := 0, 0
	for g, v := range acked {
		if err := cl.LookupInto(g, &e); err != nil {
			missing++
			t.Errorf("%s: acked GUID %s unreadable: %v", phase, g.Short(), err)
			continue
		}
		if e.Version < v {
			stale++
			t.Errorf("%s: GUID %s served at v%d, acked v%d", phase, g.Short(), e.Version, v)
		}
	}
	if missing > 0 || stale > 0 {
		t.Fatalf("%s: %d acked writes missing, %d stale of %d", phase, missing, stale, len(acked))
	}
	t.Logf("%s: %d acked writes verified", phase, len(acked))
}
