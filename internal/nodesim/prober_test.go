package nodesim

import (
	"fmt"
	"reflect"
	"strconv"
	"testing"

	"dmap/internal/guid"
	"dmap/internal/obs"
	"dmap/internal/simnet"
)

// proberWorld builds a deployment plus the shipped prober, dialing
// simulated links from a non-replica AS, whose targets are the
// sentinel's actual replica set — the ASs anti-entropy reconciles — so
// gossip repair is observable from the outside. Both objectives are the
// default 99.9 %: one failed probe in a healthy round's six burns the
// budget faster than the 14.4× fast-burn threshold.
func proberWorld(t *testing.T, sentinels int) (*obs.Prober, *Deployment, []int) {
	t.Helper()
	d, _ := testDeployment(t, 3, false)

	// All sentinels must share a replica set for every target to be a
	// replica of every sentinel; with one sentinel that is trivially so.
	if sentinels != 1 {
		t.Fatalf("proberWorld supports exactly one sentinel, got %d", sentinels)
	}
	g := guid.New("dmap.obs.sentinel.0")
	placements, err := d.nodes.res.Place(g)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	var targets []int
	for _, p := range placements {
		if !seen[p.AS] {
			seen[p.AS] = true
			targets = append(targets, p.AS)
		}
	}
	if len(targets) < 3 {
		t.Fatalf("sentinel has %d distinct replicas, want ≥ 3", len(targets))
	}
	src := 0
	for seen[src] {
		src++
	}
	cfg := obs.ProberConfig{Sentinels: 1}
	for _, as := range targets {
		cfg.Targets = append(cfg.Targets, obs.ProbeTarget{Name: fmt.Sprintf("as%d", as), Addr: strconv.Itoa(as)})
	}
	return obs.NewProber(d.probeConfig(src, cfg)), d, targets
}

// sloWindow is obs's long burn window, in probe rounds: a bad round
// slides out of every window sloWindow rounds after it.
const sloWindow = 60

func TestProberHealthyRounds(t *testing.T) {
	p, d, targets := proberWorld(t, 1)
	st := p.Round()
	// An answered operation waits for its reply, not for its timeout: a
	// healthy round costs the round trips it made.
	if now := d.Sim().Now(); now <= 0 || now >= DefaultTimeout {
		t.Fatalf("virtual clock at %d µs after one healthy round, want within (0, %d)", now, DefaultTimeout)
	}
	for i := 1; i < 3; i++ {
		st = p.Round()
	}
	if st.Rounds != 3 || st.Breaching() {
		t.Fatalf("healthy world: %+v", st)
	}
	if len(st.Targets) != len(targets) {
		t.Fatalf("%d target statuses, want %d", len(st.Targets), len(targets))
	}
	for _, ts := range st.Targets {
		if !ts.WriteOK || !ts.ReadOK || ts.Stale || ts.Lag != 0 || ts.Repaired {
			t.Errorf("healthy target: %+v", ts)
		}
	}
	for _, slo := range st.SLOs {
		if slo.Bad != 0 {
			t.Errorf("healthy SLO has bad probes: %+v", slo)
		}
	}
}

func TestProberFlagsCrashedTarget(t *testing.T) {
	p, d, targets := proberWorld(t, 1)
	p.Round()
	crash(t, d, targets[1])
	st := p.Round()
	ts := st.Targets[1]
	if ts.WriteOK || ts.ReadOK || ts.Err == "" {
		t.Fatalf("crashed target probed OK: %+v", ts)
	}
	if !st.Breaching() {
		t.Fatal("availability breach not flagged for crashed replica")
	}
}

// TestProberDetectsPartitionBeforeGossipHeals is the acceptance-path
// chaos scenario: an injected partition must be FLAGGED by the
// black-box prober (availability breach while cut off, staleness
// breach once healed but unrepaired) strictly before anti-entropy
// converges the divergence, and the breach must clear after gossip
// delivers the missed version.
func TestProberDetectsPartitionBeforeGossipHeals(t *testing.T) {
	p, d, targets := proberWorld(t, 1)
	g := guid.New("dmap.obs.sentinel.0")
	cut := targets[0]

	// Two healthy seeding rounds: every replica acks versions 1 and 2.
	p.Round()
	if st := p.Round(); st.Breaching() {
		t.Fatalf("healthy world breaching: %+v", st)
	}

	// Cut one replica off. Its writes and reads now time out.
	if err := d.Network().SetFaults(&simnet.FaultPlan{
		Partitions: []simnet.Partition{{From: d.Sim().Now(), Group: []int{cut}}},
	}); err != nil {
		t.Fatal(err)
	}
	st := p.Round() // writes version 3 everywhere except the cut replica
	if ts := st.Targets[0]; ts.WriteOK || ts.ReadOK {
		t.Fatalf("partitioned replica probed OK: %+v", ts)
	}
	if !st.Breaching() || !st.SLOs[0].Breaching {
		t.Fatalf("availability breach not flagged during partition: %+v", st.SLOs)
	}
	if got := versionAt(t, d, cut, g); got != 2 {
		t.Fatalf("cut replica at version %d, want stuck at 2", got)
	}

	// Heal the network. BEFORE any gossip runs, a read-only round must
	// observe the divergence as staleness: the cut replica answers, but
	// one version behind the newest acknowledged write.
	if err := d.Network().SetFaults(nil); err != nil {
		t.Fatal(err)
	}
	if d.GossipStats().Sweeps != 0 {
		t.Fatal("gossip ran before the prober's staleness check")
	}
	st = p.ReadRound()
	ts := st.Targets[0]
	if !ts.ReadOK || !ts.Stale || ts.Lag != 1 {
		t.Fatalf("healed-but-unrepaired replica not flagged stale: %+v", ts)
	}
	if !st.Breaching() || !st.SLOs[1].Breaching {
		t.Fatalf("staleness breach not flagged before gossip: %+v", st.SLOs)
	}
	if ts.Repaired || st.Repaired != 0 {
		t.Fatalf("repair claimed before gossip ran: %+v", ts)
	}

	// Anti-entropy converges the replica…
	rounds := 0
	for ; rounds < 4 && versionAt(t, d, cut, g) != 3; rounds++ {
		if err := d.GossipRound(); err != nil {
			t.Fatal(err)
		}
		d.Sim().Run(0)
	}
	if got := versionAt(t, d, cut, g); got != 3 {
		t.Fatalf("gossip did not converge the cut replica: version %d after %d rounds", got, rounds)
	}

	// …and the prober observes the convergence from outside: the cut
	// replica now answers a version the prober never wrote to it.
	st = p.ReadRound()
	ts = st.Targets[0]
	if !ts.Repaired || ts.Stale || ts.Lag != 0 {
		t.Fatalf("repair not observed: %+v", ts)
	}
	if st.Repaired == 0 {
		t.Fatal("convergence event not counted")
	}

	// Healthy probing resumes and the breach clears as the bad rounds
	// slide out of both burn windows.
	for i := 0; i < sloWindow+1; i++ {
		st = p.Round()
	}
	if st.Breaching() {
		t.Fatalf("SLOs still breaching %d healthy rounds after repair: %+v", sloWindow+1, st.SLOs)
	}
	for _, ts := range st.Targets {
		if !ts.WriteOK || !ts.ReadOK || ts.Stale {
			t.Errorf("post-recovery target: %+v", ts)
		}
	}
}

// TestProberDeterministic pins the prober over the link to virtual time:
// two identical scenarios produce identical probe statuses, LatUs and
// error strings included.
func TestProberDeterministic(t *testing.T) {
	run := func() []obs.ProbeStatus {
		p, d, targets := proberWorld(t, 1)
		var out []obs.ProbeStatus
		out = append(out, p.Round())
		crash(t, d, targets[2])
		out = append(out, p.Round())
		restore(t, d)
		out = append(out, p.ReadRound(), p.Round())
		return out
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("identical scenarios diverged:\n%+v\nvs\n%+v", a, b)
	}
}
