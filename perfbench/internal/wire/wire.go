// Package wire is the record stream a benchmark node process writes on
// its standard output for the benchmark runner: one gob-encoded Record
// per event. It also defines the binary span format a traced node
// writes to its data directory when it exits.
package wire

import (
	"encoding/binary"
	"fmt"
	"io"
)

// Record is one event from a node process. Exactly one field is set.
type Record struct {
	Ready    *Ready
	Block    *Block
	Counters *Counters
	Switch   *Switch
	Final    *Final
}

// Ready is written once the node's storage is open and its listener is
// bound, just before the event loop starts.
type Ready struct {
	// OpenNs is the time spent opening and replaying the block log,
	// snapshot store and vote WAL.
	OpenNs int64
}

// Block is one committed block as this node applied it.
type Block struct {
	Height, Era, View uint64
	Hash              [32]byte
	Proposer          int // node index, -1 when not a node identity
	WallNs            int64
	Txs               int // all transactions in the block
	// TxIDs concatenates the 32-byte IDs of the transactions not sent
	// by a node identity (the benchmark generator's).
	TxIDs     []byte
	PoolDepth int
}

// Switch is one completed era switch.
type Switch struct {
	Era       uint64
	Committee []int // node indices; -1 for an unknown identity
	WallNs    int64
}

// Counters is a point-in-time snapshot of a node's public counters,
// written on SIGUSR1 and once more at exit.
type Counters struct {
	UserUs, SysUs    int64
	MaxRSSKB         int64
	Delivered        uint64
	Rejected         uint64
	PoolRejectedFull uint64
	FramesOut        int64
	WriteBatches     int64
	BytesOut         int64
	Dropped          int64
	Redials          int64
	SigHits          uint64
	SigMisses        uint64
	GCCPUSeconds     float64
	CPUSeconds       float64
	AllocBytes       uint64
	WALAppends       uint64
	WALBytes         uint64
}

// Final closes the stream: the node's retained chain and its health.
type Final struct {
	Base      uint64 // lowest retained height - 1
	Hashes    [][32]byte
	Forks     int
	CommitErr string
}

// Span kinds recorded by a traced node.
const (
	SpanEnvelope      uint8 = iota + 1 // Engine.OnEnvelope
	SpanRequest                        // Engine.OnRequest
	SpanTimer                          // Engine.OnTimer
	SpanCommitApplied                  // CommitNotifiable.OnCommitApplied
	SpanSend                           // Executor.Send
	SpanWALAppend                      // ConsensusWAL.Append
	SpanWALRotate                      // ConsensusWAL.Rotate
	SpanBlockLog                       // block-log append in OnCommit
)

// Span is one timed call at a layer boundary. Parent is the index, in
// the node's span list, of the engine-entry span that caused the call,
// or -1 for an engine entry itself.
type Span struct {
	Kind    uint8
	Parent  int32
	StartNs int64 // wall clock, Unix nanoseconds
	DurNs   int64
}

const spanSize = 1 + 4 + 8 + 8

// WriteSpans writes spans in a fixed little-endian layout.
func WriteSpans(w io.Writer, spans []Span) error {
	buf := make([]byte, spanSize)
	for _, s := range spans {
		buf[0] = s.Kind
		binary.LittleEndian.PutUint32(buf[1:], uint32(s.Parent))
		binary.LittleEndian.PutUint64(buf[5:], uint64(s.StartNs))
		binary.LittleEndian.PutUint64(buf[13:], uint64(s.DurNs))
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

// ReadSpans parses what WriteSpans wrote.
func ReadSpans(b []byte) ([]Span, error) {
	if len(b)%spanSize != 0 {
		return nil, fmt.Errorf("wire: span file length %d is not a multiple of %d", len(b), spanSize)
	}
	out := make([]Span, 0, len(b)/spanSize)
	for off := 0; off < len(b); off += spanSize {
		r := b[off : off+spanSize]
		out = append(out, Span{
			Kind:    r[0],
			Parent:  int32(binary.LittleEndian.Uint32(r[1:])),
			StartNs: int64(binary.LittleEndian.Uint64(r[5:])),
			DurNs:   int64(binary.LittleEndian.Uint64(r[13:])),
		})
	}
	return out, nil
}
