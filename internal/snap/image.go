package snap

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"ghost/internal/agentsdk"
	"ghost/internal/ghostcore"
	"ghost/internal/hw"
	"ghost/internal/kernel"
	"ghost/internal/sim"
)

// Version is the snapshot wire-format version this build reads and
// writes.
const Version = 1

var (
	// ErrVersion is returned when decoding a snapshot written by an
	// incompatible format version.
	ErrVersion = errors.New("unsupported snapshot version")
	// ErrCorrupt is returned when a snapshot fails structural validation
	// (bad magic, checksum mismatch, truncation).
	ErrCorrupt = errors.New("corrupt snapshot")
)

// ComponentRec is one serialized machine component.
type ComponentRec struct {
	Key  string `json:"key"`
	Kind string `json:"kind"`
	Data []byte `json:"data,omitempty"`
}

// TickerRec is one serialized keyed virtual timer. Its pending firing,
// if armed, rides separately in the event list.
type TickerRec struct {
	Key     string `json:"key"`
	Period  int64  `json:"period"`
	Stopped bool   `json:"stopped,omitempty"`
}

// EventRec is one serialized pending engine event, classified by its
// owning subsystem. Kind selects the decoder: "sim.ticker" (Key names
// the ticker), "kernel.*" (Ref is a TID or CPU id), "ghost.install"
// (Args), "agentsdk.pokeactive" (Ref is an enclave id), or "component"
// (Key names the component, Sub the event within it).
type EventRec struct {
	At   int64   `json:"at"`
	Seq  uint64  `json:"seq"`
	Kind string  `json:"kind"`
	Key  string  `json:"key,omitempty"`
	Sub  string  `json:"sub,omitempty"`
	Ref  int64   `json:"ref,omitempty"`
	Args []int64 `json:"args,omitempty"`
}

// CoreImage is the machine state. The forward digest is computed over its
// serialized form only. It never depended on how the machine's events
// were queued, so images written when one machine could be split over
// several event queues restore into the one engine unchanged.
type CoreImage struct {
	Topology hw.Config    `json:"topology"`
	Cost     hw.CostModel `json:"cost"`

	Now      int64  `json:"now"`
	Seq      uint64 `json:"seq"`
	Executed uint64 `json:"executed"`
	MaxQueue int    `json:"maxQueue"`

	Kernel     *kernel.KernelImage `json:"kernel"`
	Ghost      *ghostcore.ClassRec `json:"ghost,omitempty"`
	Sets       []*agentsdk.SetRec  `json:"sets,omitempty"`
	Components []ComponentRec      `json:"components,omitempty"`
	Tickers    []TickerRec         `json:"tickers,omitempty"`
	Events     []EventRec          `json:"events,omitempty"`
}

// shardSection is the container's second section. It described how the
// machine's events were split over event queues; there is one queue per
// machine now, so Encode writes shards 1 and Decode checks that the
// section is well-formed JSON and otherwise ignores it. Its other fields
// (eventDoms, windows, mailboxed, fastpath) are skipped on decode.
type shardSection struct {
	Shards int `json:"shards"`
}

// Image is a decoded snapshot: the core state.
type Image struct {
	Core *CoreImage

	coreJSON []byte
}

// NewImage wraps freshly saved state into an Image (Save calls this; it
// is exported for tests that construct images directly).
func NewImage(core *CoreImage) (*Image, error) {
	cj, err := json.Marshal(core)
	if err != nil {
		return nil, err
	}
	return &Image{Core: core, coreJSON: cj}, nil
}

// Digest returns the hex sha256 of the serialized core state — the
// machine-identity fingerprint used by the determinism gates.
func (img *Image) Digest() string {
	sum := sha256.Sum256(img.coreJSON)
	return hex.EncodeToString(sum[:])
}

// Now returns the simulated time the snapshot was taken at.
func (img *Image) Now() sim.Time { return sim.Time(img.Core.Now) }

// magic identifies the snapshot container format.
var magic = [8]byte{'g', 'h', 'o', 's', 't', 's', 'n', 'p'}

// Encode writes the snapshot container: magic, version, the two
// length-prefixed JSON sections (core, then the shard section), and a
// trailing sha256 of everything after the magic.
func (img *Image) Encode(w io.Writer) error {
	sj, err := json.Marshal(shardSection{Shards: 1})
	if err != nil {
		return err
	}
	var body bytes.Buffer
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], Version)
	body.Write(hdr[:])
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(img.coreJSON)))
	body.Write(hdr[:])
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(sj)))
	body.Write(hdr[:])
	body.Write(img.coreJSON)
	body.Write(sj)
	sum := sha256.Sum256(body.Bytes())
	if _, err := w.Write(magic[:]); err != nil {
		return err
	}
	if _, err := w.Write(body.Bytes()); err != nil {
		return err
	}
	_, err = w.Write(sum[:])
	return err
}

// Decode reads a snapshot container, returning ErrVersion for a format
// version this build does not speak and ErrCorrupt for bad magic, a
// checksum mismatch, or truncation.
func Decode(r io.Reader) (*Image, error) {
	var m [8]byte
	if _, err := io.ReadFull(r, m[:]); err != nil {
		return nil, fmt.Errorf("%w: missing header: %v", ErrCorrupt, err)
	}
	if m != magic {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	var hdr [12]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: truncated header: %v", ErrCorrupt, err)
	}
	version := binary.LittleEndian.Uint32(hdr[0:4])
	coreLen := binary.LittleEndian.Uint32(hdr[4:8])
	shardLen := binary.LittleEndian.Uint32(hdr[8:12])
	if version != Version {
		return nil, fmt.Errorf("%w: snapshot is v%d, this build speaks v%d", ErrVersion, version, Version)
	}
	const maxSection = 1 << 30
	if coreLen > maxSection || shardLen > maxSection {
		return nil, fmt.Errorf("%w: implausible section lengths", ErrCorrupt)
	}
	// Read what is there rather than allocating what the header claims,
	// so a damaged length costs only the bytes actually supplied.
	want := int64(coreLen) + int64(shardLen) + sha256.Size
	payload, err := io.ReadAll(io.LimitReader(r, want))
	if err != nil || int64(len(payload)) != want {
		return nil, fmt.Errorf("%w: truncated body: read %d of %d bytes (%v)", ErrCorrupt, len(payload), want, err)
	}
	body := payload[:int(coreLen)+int(shardLen)]
	var sum [sha256.Size]byte
	copy(sum[:], payload[len(body):])
	h := sha256.New()
	h.Write(hdr[:])
	h.Write(body)
	if !bytes.Equal(h.Sum(nil), sum[:]) {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	cj := body[:coreLen]
	sj := body[coreLen:]
	core := &CoreImage{}
	if err := json.Unmarshal(cj, core); err != nil {
		return nil, fmt.Errorf("%w: core section: %v", ErrCorrupt, err)
	}
	var shard shardSection
	if err := json.Unmarshal(sj, &shard); err != nil {
		return nil, fmt.Errorf("%w: shard section: %v", ErrCorrupt, err)
	}
	return &Image{Core: core, coreJSON: append([]byte(nil), cj...)}, nil
}
