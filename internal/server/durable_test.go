package server

import (
	"testing"

	"dmap/internal/guid"
	"dmap/internal/store"
	"dmap/internal/wire"
)

// Open → write → Close → Open must serve the written state: the node
// owns the durable store and flushes it on clean shutdown.
func TestOpenDurableLifecycle(t *testing.T) {
	dir := t.TempDir()
	n, err := Open(Options{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	e := testEntry()
	if _, err := n.Store().Put(e); err != nil {
		t.Fatal(err)
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	// The store was closed with the node: further writes must fail.
	fresh := e
	fresh.GUID[0] ^= 0xFF
	if _, err := n.Store().Put(fresh); err == nil {
		t.Fatal("store still writable after node Close")
	}

	r, err := Open(Options{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	got, ok := r.Store().Get(e.GUID)
	if !ok || got.Version != e.Version {
		t.Fatalf("recovered entry = (%+v, %v)", got, ok)
	}
}

// A store that cannot log an insert is the node's failure, not the
// peer's: the insert is answered ErrKindInternal and counted as an
// error, while an entry that is invalid (a zero GUID) is still the
// peer's fault, ErrKindBadRequest.
func TestUnloggedInsertIsInternal(t *testing.T) {
	n, err := Open(Options{DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	conn, _ := serveCounted(t, n)
	n.Store().Close() // closed under the serving node
	valid, err := wire.AppendEntry(nil, testEntry())
	if err != nil {
		t.Fatal(err)
	}
	zero := append([]byte(nil), valid...)
	copy(zero, make([]byte, guid.Size)) // the encoder refuses a zero GUID; a peer need not
	for _, c := range []struct {
		name string
		body []byte
		want wire.ErrKind
	}{{"entry", valid, wire.ErrKindInternal}, {"zero-GUID entry", zero, wire.ErrKindBadRequest}} {
		frame, err := wire.AppendFrameID(nil, wire.MsgInsert, 1, c.body)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(frame); err != nil {
			t.Fatal(err)
		}
		typ, _, body, err := wire.ReadFrameID(conn)
		if err != nil || typ != wire.MsgError {
			t.Fatalf("%s: reply = (%v, %v), want MsgError", c.name, typ, err)
		}
		if kind, _, err := wire.DecodeErrorKind(body); err != nil || kind != c.want {
			t.Fatalf("%s: kind %v (%v), want %v", c.name, kind, err, c.want)
		}
	}
	if st := n.Stats(); st.Errors != 1 || st.BadRequests != 1 || st.Inserts != 0 {
		t.Fatalf("Stats = %+v, want 1 error, 1 bad request, no insert", st)
	}
}

// An empty DataDir falls back to a memory-only store, and Close leaves
// a caller-provided store open (the node does not own it).
func TestOpenWithoutDataDir(t *testing.T) {
	n, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}

	st := store.New()
	m := NewWithOptions(st, Options{})
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Put(testEntry()); err != nil {
		t.Fatalf("caller-owned store closed by node: %v", err)
	}
}

// Drain must leave every acknowledged write durable (Sync), and a
// shard-count mismatch must surface as an Open error.
func TestOpenDrainSyncsAndShardMismatch(t *testing.T) {
	dir := t.TempDir()
	n, err := Open(Options{DataDir: dir, Fsync: store.FsyncInterval, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Store().Put(testEntry()); err != nil {
		t.Fatal(err)
	}
	n.Drain()
	if !n.Draining() {
		t.Fatal("not draining")
	}
	n.Close()
	if _, err := Open(Options{DataDir: dir, Shards: 8}); err == nil {
		t.Fatal("shard-count change accepted")
	}
	r, err := Open(Options{DataDir: dir, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	r.Close()
}
