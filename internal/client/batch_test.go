package client

import (
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"testing"
	"time"

	"dmap/internal/core"
	"dmap/internal/guid"
	"dmap/internal/prefixtable"
	"dmap/internal/store"
	"dmap/internal/trace"
	"dmap/internal/wire"
)

// BenchmarkBatchClient is the batch client's side of bench/'s
// batch_mobility mix without a socket: three LookupBatch calls of 64
// uniform GUIDs to one InsertBatch re-homing a host of 64, placed over
// the full-scale DFZ folded onto three ASs (as bench/ folds it), against
// a transport that answers every frame from its payload. It reports ns
// and allocations per GUID; `go test -run '^$' -bench BatchClient
// -cpuprofile cpu.out ./internal/client` profiles what the benchmark's
// client process spends on a batch.
func BenchmarkBatchClient(b *testing.B) {
	const nodes, hostSize = 3, 64
	tbl, err := prefixtable.Generate(prefixtable.DefaultGenConfig(1))
	if err != nil {
		b.Fatal(err)
	}
	for _, e := range tbl.Entries() {
		if err := tbl.Announce(e.Prefix, e.AS%nodes); err != nil {
			b.Fatal(err)
		}
	}
	resolver, err := core.NewResolver(guid.MustHasher(3, 0), tbl, 0)
	if err != nil {
		b.Fatal(err)
	}
	addrs := make(map[int]string, nodes)
	for as := 0; as < nodes; as++ {
		addrs[as] = strconv.Itoa(as)
	}
	c, err := NewWithConfig(resolver, addrs, Config{})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	nas := []store.NA{{AS: 3, Addr: 7}}
	c.net = synchronous(func(_ string, mt wire.MsgType, _ trace.Context, payload []byte, _ time.Duration) (wire.MsgType, []byte, error) {
		n, items, err := wire.DecodeBatchCount(payload)
		if err != nil {
			return 0, nil, err
		}
		switch mt {
		case wire.MsgBatchLookup:
			body := append(wire.Replies.Get(2+n*64), payload[:2]...)
			for ; len(items) >= guid.Size; items = items[guid.Size:] {
				e := store.Entry{GUID: guid.GUID(items[:guid.Size]), NAs: nas, Version: 1}
				if body, err = wire.AppendLookupResp(body, wire.LookupResp{Found: true, Entry: e}); err != nil {
					return 0, nil, err
				}
			}
			return wire.MsgBatchLookupResp, body, nil
		case wire.MsgBatchInsert:
			ack := append(wire.Replies.Get(2+n), payload[:2]...)
			for i := 0; i < n; i++ {
				ack = append(ack, 1)
			}
			return wire.MsgBatchInsertAck, ack, nil
		}
		return 0, nil, fmt.Errorf("scripted transport: unexpected %v", mt)
	})

	rng := rand.New(rand.NewSource(1))
	keys := make([]guid.GUID, 1<<17)
	for i := range keys {
		keys[i] = guid.FromUint64(rng.Uint64())
	}
	gs := make([]guid.GUID, hostSize)
	batch := make([]store.Entry, hostSize)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%4 == 3 {
			h := rng.Intn(len(keys) / hostSize)
			for j := range batch {
				batch[j] = store.Entry{GUID: keys[h*hostSize+j], NAs: nas, Version: uint64(i)}
			}
			if _, err := c.InsertBatch(batch); err != nil {
				b.Fatal(err)
			}
			continue
		}
		for j := range gs {
			gs[j] = keys[rng.Intn(len(keys))]
		}
		if _, found, err := c.LookupBatch(gs); err != nil || !found[0] {
			b.Fatalf("LookupBatch = %v, %v", found, err)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	guids := float64(b.N * hostSize)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/guids, "ns/guid")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/guids, "allocs/guid")
}
