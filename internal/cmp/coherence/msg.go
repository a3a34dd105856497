// Package coherence implements the two-level MESI directory protocol of the
// CMP model (Table 2): private L1 caches, a shared banked inclusive L2 with
// an embedded full-map directory, home-serialized transactions, recalls on
// L2 evictions, and write-back interaction with the memory controllers.
//
// The controllers are pure state machines over an abstract Transport so
// they can be unit tested without the network simulator; the cmp package
// binds them to the NoC. Each state change lives in one message-free
// method or function that the message handlers call; Warm calls the same
// ones to apply a whole transaction at once for cache warmup.
package coherence

import "fmt"

// MsgType enumerates protocol messages.
type MsgType uint8

const (
	// Requests from L1 to the home directory.
	GetS MsgType = iota // read miss
	GetM                // write miss / upgrade
	PutM                // dirty eviction write-back (data)

	// Responses from home to L1.
	Data  // shared copy (data)
	DataE // exclusive clean copy (data)
	DataM // writable copy after invalidations (data)
	WBAck // write-back acknowledged

	// Home to remote L1s.
	Inv     // invalidate (also used for recalls)
	FwdGetS // owner must downgrade and supply data to home
	FwdGetM // owner must invalidate and supply data to home

	// Remote L1 to home.
	InvAck     // invalidation done (control; data piggybacked when dirty)
	FwdAckData // forward handled; Dirty says whether data accompanies
	FwdNoData  // forward target no longer holds the line

	// Home to memory controller and back.
	MemRead  // fetch a line (control)
	MemWrite // write back a line (data, no reply)
	MemData  // fetched line (data)
)

var msgNames = [...]string{
	"GetS", "GetM", "PutM", "Data", "DataE", "DataM", "WBAck",
	"Inv", "FwdGetS", "FwdGetM", "InvAck", "FwdAckData", "FwdNoData",
	"MemRead", "MemWrite", "MemData",
}

func (t MsgType) String() string {
	if int(t) < len(msgNames) {
		return msgNames[t]
	}
	return fmt.Sprintf("MsgType(%d)", int(t))
}

// IsData reports whether the message carries a cache line (and therefore
// travels as a multi-flit data packet).
func (t MsgType) IsData() bool {
	switch t {
	case PutM, Data, DataE, DataM, MemWrite, MemData:
		return true
	}
	return false
}

// Msg is one protocol message.
type Msg struct {
	Type MsgType
	Line uint64
	Src  int // sending terminal (tile or MC tile)
	Dst  int // receiving terminal
	// Reqer is the original requester on forwarded flows.
	Reqer int
	// Dirty marks responses that carry modified data.
	Dirty bool
	// SentAt is stamped by the transport for latency accounting.
	SentAt int64
	// Seq is a per-(Src,Dst) sequence number assigned by the transport.
	// The receiving network interface delivers messages of a pair in
	// order (an NI reorder buffer); the protocol relies on this to keep
	// a home's responses and subsequent forwards/invalidates ordered.
	Seq int64
}

// Transport delivers protocol messages between terminals. after is an
// additional processing delay in core cycles (bank access time) charged
// before the message leaves the sender.
type Transport interface {
	Send(m Msg, after int64)
}
