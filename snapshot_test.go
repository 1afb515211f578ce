package ghost_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"os"
	"runtime"
	"strings"
	"testing"

	"ghost"
)

// buildServing constructs the snapshot test scenario entirely from
// snapshot-capable pieces: an enclave with a centralized FIFO agent, a
// ghOSt-class worker pool fed by a Poisson source, and a spinner
// antagonist sharing the enclave.
func buildServing(opts ...ghost.MachineOption) *ghost.Machine {
	m := ghost.NewMachine(ghost.XeonE5(), opts...)
	enc := m.NewEnclave(ghost.MaskOf(0, 1, 2, 3))
	m.StartAgents(enc, ghost.NewFIFOPolicy(), ghost.Global())
	pool := m.NewWorkerPool(3, &ghost.LatencyRecorder{}, func(name string, body ghost.ThreadFunc) *ghost.Thread {
		return m.Spawn(ghost.ThreadOpts{Name: name, Class: ghost.Ghost(enc)}, body)
	})
	m.AddSnapshotComponent("pool", pool)
	src := m.NewPoissonSource(ghost.NewRand(7), 40_000, ghost.ExponentialService(20*ghost.Microsecond),
		func(r *ghost.Request) { pool.Submit(r) })
	m.AddSnapshotComponent("src", src)
	m.SpawnSpinner(ghost.ThreadOpts{Name: "spin", Class: ghost.Ghost(enc)}, 15*ghost.Microsecond)
	return m
}

// servingRestoreOpts supplies the one closure a snapshot cannot carry:
// the Poisson source's sink, re-wired to the restored pool.
func servingRestoreOpts() []ghost.MachineOption {
	return []ghost.MachineOption{
		ghost.WithRestoredComponent("src", func(m *ghost.Machine) (ghost.SnapshotComponent, error) {
			pool, ok := m.SnapshotComponent("pool").(*ghost.WorkerPool)
			if !ok {
				return nil, errors.New("pool not restored before src")
			}
			return m.NewPoissonShell(func(r *ghost.Request) { pool.Submit(r) }), nil
		}),
	}
}

// digestAt snapshots m (which must be at a quiescent barrier) and
// returns its core digest.
func digestAt(t *testing.T, m *ghost.Machine) string {
	t.Helper()
	s, err := m.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	return s.Digest()
}

// TestSnapshotRoundTripDeterminism is the restore-transparency gate:
// digest(run 0→T) == digest(restore(snap@t), run t→T) for snapshot
// points at the start, middle, and near the horizon. The snapshot is
// pushed through the wire codec on the way, so the byte format is part
// of the proof.
func TestSnapshotRoundTripDeterminism(t *testing.T) {
	const horizon = 4 * ghost.Millisecond
	ref := buildServing()
	ref.Run(horizon)
	want := digestAt(t, ref)
	ref.Shutdown()

	for _, tc := range []struct {
		name string
		at   ghost.Duration
	}{
		{"t0", 0},
		{"mid", horizon / 2},
		{"late", horizon - 200*ghost.Microsecond},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cand := buildServing()
			defer cand.Shutdown()
			if tc.at > 0 {
				cand.Run(tc.at)
			}
			s, err := cand.Snapshot()
			if err != nil {
				t.Fatalf("Snapshot at %v: %v", tc.at, err)
			}

			// Round-trip through the serialized container.
			var buf bytes.Buffer
			if _, err := s.WriteTo(&buf); err != nil {
				t.Fatalf("WriteTo: %v", err)
			}
			s2, err := ghost.ReadSnapshot(&buf)
			if err != nil {
				t.Fatalf("ReadSnapshot: %v", err)
			}
			if s2.Digest() != s.Digest() {
				t.Fatalf("digest changed across codec: %s != %s", s2.Digest(), s.Digest())
			}
			if s2.Time() != tc.at {
				t.Fatalf("snapshot time = %v, want %v", s2.Time(), tc.at)
			}

			restored, err := ghost.Restore(s2, servingRestoreOpts()...)
			if err != nil {
				t.Fatalf("Restore: %v", err)
			}
			defer restored.Shutdown()
			if restored.Now() != tc.at {
				t.Fatalf("restored Now = %v, want %v", restored.Now(), tc.at)
			}
			restored.RunUntil(horizon)
			if got := digestAt(t, restored); got != want {
				t.Fatalf("restore not transparent: digest %s, want %s", got, want)
			}
		})
	}
}

// TestSnapshotShardMismatch: the container's shard section no longer
// pins the restore. testdata/serving-v1-shards4.ghostsnp says shards 4,
// and TestSnapshotImageCompatible restores it into the machine's one
// event queue; writing that snapshot again says shards 1.
func TestSnapshotShardMismatch(t *testing.T) {
	data, err := os.ReadFile("testdata/serving-v1-shards4.ghostsnp")
	if err != nil {
		t.Fatal(err)
	}
	if _, section := containerSections(data); !bytes.HasPrefix(section, []byte(`{"shards":4,`)) {
		t.Fatalf("committed image shard section %s does not say shards 4", section)
	}
	s, err := ghost.ReadSnapshot(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("ReadSnapshot: %v", err)
	}
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	if _, section := containerSections(buf.Bytes()); string(section) != `{"shards":1}` {
		t.Fatalf("written shard section = %s, want {\"shards\":1}", section)
	}
}

// containerSections splits a snapshot container (magic, version, core
// and shard section lengths, the sections, a sha256) into its two JSON
// sections.
func containerSections(data []byte) (core, shard []byte) {
	coreLen := binary.LittleEndian.Uint32(data[12:16])
	shardLen := binary.LittleEndian.Uint32(data[16:20])
	body := data[20:]
	return body[:coreLen], body[coreLen : coreLen+shardLen]
}

// container builds a v1 snapshot container around the given sections,
// with a valid checksum.
func container(core, shard []byte) []byte {
	var body []byte
	body = binary.LittleEndian.AppendUint32(body, ghost.SnapshotVersion)
	body = binary.LittleEndian.AppendUint32(body, uint32(len(core)))
	body = binary.LittleEndian.AppendUint32(body, uint32(len(shard)))
	body = append(body, core...)
	body = append(body, shard...)
	sum := sha256.Sum256(body)
	return append(append([]byte("ghostsnp"), body...), sum[:]...)
}

// TestSnapshotDecodeErrors: corrupt, truncated, and wrong-version
// containers surface typed errors, never panics.
func TestSnapshotDecodeErrors(t *testing.T) {
	m := buildServing()
	defer m.Shutdown()
	m.Run(ghost.Millisecond)
	s, err := m.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	for _, c := range badContainers(buf.Bytes()) {
		_, err := ghost.ReadSnapshot(bytes.NewReader(c.data))
		if !errors.Is(err, c.want) {
			t.Fatalf("%s: err = %v, want %v", c.name, err, c.want)
		}
	}
}

// badContainer is a damaged snapshot container and the error decoding it
// must wrap.
type badContainer struct {
	name string
	data []byte
	want error
}

// badContainers derives corrupt, truncated and wrong-version containers
// from the good one.
func badContainers(good []byte) []badContainer {
	core, _ := containerSections(good)
	flip := func(i int, b byte) []byte {
		bad := append([]byte(nil), good...)
		bad[i] = b
		return bad
	}
	return []badContainer{
		{"empty", nil, ghost.ErrSnapshotCorrupt},
		{"truncated", good[:len(good)-7], ghost.ErrSnapshotCorrupt},
		{"short-header", good[:10], ghost.ErrSnapshotCorrupt},
		{"bad-magic", flip(0, 'X'), ghost.ErrSnapshotCorrupt},
		{"flipped-byte", flip(len(good)/2, good[len(good)/2]^0xff), ghost.ErrSnapshotCorrupt},
		// The version field is a little-endian u32 after the magic.
		{"wrong-version", flip(8, 0x7f), ghost.ErrSnapshotVersion},
		// The shard section is ignored on load, but must still decode.
		{"bad-shard-section", container(core, []byte(`{"shards":`)), ghost.ErrSnapshotCorrupt},
	}
}

// TestSnapshotDecodeClaimedLength: a header that claims a 256 MB core
// section in front of no data is corrupt, and decoding it allocates for
// the bytes supplied, not for the bytes claimed.
func TestSnapshotDecodeClaimedLength(t *testing.T) {
	data := append([]byte("ghostsnp"),
		1, 0, 0, 0, // version
		0, 0, 0, 0x10, // core section: 256 MB
		0, 0, 0, 0) // shard section
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ghost.ReadSnapshot(bytes.NewReader(data))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ghost.ErrSnapshotCorrupt) {
		t.Fatalf("err = %v, want %v", err, ghost.ErrSnapshotCorrupt)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("decoding a 20-byte container allocated %d bytes", grew)
	}
}

// FuzzReadSnapshot: whatever the bytes, ReadSnapshot never panics and
// fails only with a typed error; an image it accepts restores without a
// panic. Seeds: the committed v1 images, a fresh one, and the damaged
// containers of TestSnapshotDecodeErrors.
func FuzzReadSnapshot(f *testing.F) {
	for _, file := range []string{"serving-v1.ghostsnp", "serving-v1-shards4.ghostsnp"} {
		img, err := os.ReadFile("testdata/" + file)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(img)
	}
	m := buildServing()
	m.Run(ghost.Millisecond)
	s, err := m.Snapshot()
	m.Shutdown()
	if err != nil {
		f.Fatalf("Snapshot: %v", err)
	}
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		f.Fatalf("WriteTo: %v", err)
	}
	f.Add(buf.Bytes())
	for _, c := range badContainers(buf.Bytes()) {
		f.Add(c.data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ghost.ReadSnapshot(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ghost.ErrSnapshotCorrupt) && !errors.Is(err, ghost.ErrSnapshotVersion) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		if m, err := ghost.Restore(s, servingRestoreOpts()...); err == nil {
			m.Shutdown()
		}
	})
}

// TestSnapshotRefusesAdHocThread: a thread whose body is a plain closure
// cannot be rebuilt, so Snapshot refuses the machine and names the
// thread, while the agent runners, which have no body descriptor either,
// are accepted because their agent set re-spawns them.
func TestSnapshotRefusesAdHocThread(t *testing.T) {
	m := buildServing()
	defer m.Shutdown()
	m.Run(ghost.Millisecond)
	if _, err := m.Snapshot(); err != nil {
		t.Fatalf("Snapshot before the ad-hoc thread: %v", err)
	}
	m.Spawn(ghost.ThreadOpts{Name: "adhoc"}, func(tc *ghost.Task) ghost.Op { return tc.Block() })
	m.Run(2 * ghost.Millisecond)
	_, err := m.Snapshot()
	if err == nil {
		t.Fatal("Snapshot accepted a thread with an unregistered closure body")
	}
	for _, frag := range []string{"adhoc", "no registered resumable body"} {
		if !strings.Contains(err.Error(), frag) {
			t.Fatalf("error %q does not mention %q", err, frag)
		}
	}
}

// TestWithSnapshotEvery: periodic checkpoints land exactly on the
// requested boundaries and none are skipped in a snapshot-capable
// scenario.
func TestWithSnapshotEvery(t *testing.T) {
	m := buildServing(ghost.WithSnapshotEvery(ghost.Millisecond))
	defer m.Shutdown()
	m.Run(3500 * ghost.Microsecond)
	cks := m.Checkpoints()
	if len(cks) != 3 {
		t.Fatalf("checkpoints = %d, want 3", len(cks))
	}
	for i, s := range cks {
		want := ghost.Time(i+1) * ghost.Millisecond
		if s.Time() != want {
			t.Fatalf("checkpoint %d at %v, want %v", i, s.Time(), want)
		}
	}
	if m.SnapshotSkips() != 0 {
		t.Fatalf("skips = %d, want 0", m.SnapshotSkips())
	}

	// A checkpoint restores just like an explicit snapshot.
	restored, err := ghost.Restore(cks[1], servingRestoreOpts()...)
	if err != nil {
		t.Fatalf("Restore(checkpoint): %v", err)
	}
	defer restored.Shutdown()
	if restored.Now() != 2*ghost.Millisecond {
		t.Fatalf("restored Now = %v", restored.Now())
	}
}

// BenchmarkSnapshotRoundTrip measures the checkpoint cycle on a warmed
// serving machine: Snapshot (quiescent-barrier walk), Encode to the wire
// format, Decode, and Restore into a runnable machine. snap-bytes
// reports the encoded checkpoint size.
func BenchmarkSnapshotRoundTrip(b *testing.B) {
	m := ghost.NewMachine(ghost.XeonE5())
	enc := m.NewEnclave(ghost.MaskOf(0, 1, 2, 3))
	m.StartAgents(enc, ghost.NewFIFOPolicy(), ghost.Global())
	pool := m.NewWorkerPool(3, &ghost.LatencyRecorder{}, func(name string, body ghost.ThreadFunc) *ghost.Thread {
		return m.Spawn(ghost.ThreadOpts{Name: name, Class: ghost.Ghost(enc)}, body)
	})
	m.AddSnapshotComponent("pool", pool)
	src := m.NewPoissonSource(ghost.NewRand(7), 40_000, ghost.ExponentialService(20*ghost.Microsecond),
		func(r *ghost.Request) { pool.Submit(r) })
	m.AddSnapshotComponent("src", src)
	m.Run(10 * ghost.Millisecond)
	defer m.Shutdown()

	var buf bytes.Buffer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := m.Snapshot()
		if err != nil {
			b.Fatal(err)
		}
		buf.Reset()
		if _, err := s.WriteTo(&buf); err != nil {
			b.Fatal(err)
		}
		r, err := ghost.ReadSnapshot(bytes.NewReader(buf.Bytes()))
		if err != nil {
			b.Fatal(err)
		}
		rm, err := ghost.Restore(r, servingRestoreOpts()...)
		if err != nil {
			b.Fatal(err)
		}
		rm.Shutdown()
	}
	b.ReportMetric(float64(buf.Len()), "snap-bytes")
}

// TestSnapshotImageCompatible pins the snapshot format across changes to
// how threads run and how events are queued: testdata/serving-v1.ghostsnp
// is the buildServing scenario at 2ms, written by the
// goroutine-per-thread simulator, with one pool worker parked in Run,
// two in Block, the spinner in Run, and agent runners recorded as
// steppers; testdata/serving-v1-shards4.ghostsnp is the same scenario at
// 2ms on a machine split over four event queues, written before a
// machine had exactly one. Each must still decode, restore each thread
// in its resume state, and reach at 4ms the digest of a fresh
// buildServing run to 4ms, which is pinned as well.
func TestSnapshotImageCompatible(t *testing.T) {
	const want = "15a4230396b0e0dea7435c2670e1a5540dcf97e8debbed54b6fa32e13507ea25"
	fresh := buildServing()
	fresh.Run(4 * ghost.Millisecond)
	if got := digestAt(t, fresh); got != want {
		t.Fatalf("fresh run digest at 4ms %s, want %s", got, want)
	}
	fresh.Shutdown()
	for _, file := range []string{"serving-v1.ghostsnp", "serving-v1-shards4.ghostsnp"} {
		t.Run(file, func(t *testing.T) {
			data, err := os.ReadFile("testdata/" + file)
			if err != nil {
				t.Fatal(err)
			}
			s, err := ghost.ReadSnapshot(bytes.NewReader(data))
			if err != nil {
				t.Fatalf("ReadSnapshot: %v", err)
			}
			m, err := ghost.Restore(s, servingRestoreOpts()...)
			if err != nil {
				t.Fatalf("Restore: %v", err)
			}
			defer m.Shutdown()
			m.RunUntil(4 * ghost.Millisecond)
			if got := digestAt(t, m); got != want {
				t.Fatalf("restored image diverged: digest %s, want %s", got, want)
			}
		})
	}
}
