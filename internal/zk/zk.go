// Package zk is a small ZooKeeper-like coordination service with a
// pluggable atomic-broadcast engine, mirroring the paper's ZKCanopus:
// "a modified version of ZooKeeper that replaces Zab with Canopus"
// (§8). Backed by zab.Node it behaves like ZooKeeper (local,
// sequentially consistent reads); backed by core.Node it becomes
// ZKCanopus (linearizable reads through Canopus's read delay, no leader
// bottleneck).
//
// The data model is a flat tree of znodes addressed by slash-separated
// paths, supporting Create (no-op if present), Set, Delete,
// DeleteIfValue (conditional, for lock release), Get and Exists, plus
// local watches that fire when a committed write touches a path.
package zk

import (
	"encoding/binary"
	"hash/fnv"
	"sort"

	"canopus/internal/wire"
)

// WriteOp is a znode mutation kind, carried in the first byte of the
// consensus request value.
type WriteOp uint8

const (
	// OpCreate creates the znode if absent; applying to an existing
	// znode is a no-op (callers detect failure with a follow-up Get —
	// linearizable under ZKCanopus).
	OpCreate WriteOp = iota + 1
	// OpSet upserts the znode data and bumps its version.
	OpSet
	// OpDelete removes the znode unconditionally.
	OpDelete
	// OpDeleteIfValue removes the znode only if its data matches,
	// which is exactly what a lock holder needs to release safely.
	OpDeleteIfValue
)

// ZNode is one tree entry.
type ZNode struct {
	Path    string
	Data    []byte
	Version uint32
}

// PathKey hashes a znode path to the 64-bit key space the consensus
// engines order on (and take write leases on).
func PathKey(path string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(path))
	return h.Sum64()
}

// EncodeWrite packs a znode mutation into a consensus request value.
func EncodeWrite(op WriteOp, path string, data []byte) []byte {
	out := make([]byte, 0, 1+2+len(path)+len(data))
	out = append(out, byte(op))
	var l [2]byte
	binary.LittleEndian.PutUint16(l[:], uint16(len(path)))
	out = append(out, l[:]...)
	out = append(out, path...)
	return append(out, data...)
}

// DecodeWrite unpacks a znode mutation; ok is false on malformed input.
func DecodeWrite(v []byte) (op WriteOp, path string, data []byte, ok bool) {
	if len(v) < 3 {
		return 0, "", nil, false
	}
	op = WriteOp(v[0])
	n := int(binary.LittleEndian.Uint16(v[1:3]))
	if len(v) < 3+n {
		return 0, "", nil, false
	}
	path = string(v[3 : 3+n])
	data = v[3+n:]
	return op, path, data, true
}

// Tree is the replicated znode state machine. It implements the
// StateMachine interface of both consensus engines.
type Tree struct {
	byPath map[string]*ZNode
	byKey  map[uint64]*ZNode
	// watches are local (not replicated): path -> callbacks fired on the
	// next committed mutation of that path.
	watches map[string][]func(*ZNode)
}

// NewTree creates an empty znode tree.
func NewTree() *Tree {
	return &Tree{
		byPath:  make(map[string]*ZNode),
		byKey:   make(map[uint64]*ZNode),
		watches: make(map[string][]func(*ZNode)),
	}
}

// ApplyWrite implements the consensus StateMachine interface.
func (t *Tree) ApplyWrite(req *wire.Request) {
	op, path, data, ok := DecodeWrite(req.Val)
	if !ok {
		return
	}
	key := PathKey(path)
	n := t.byPath[path]
	switch op {
	case OpCreate:
		if n != nil {
			return // create of an existing znode: no-op
		}
		n = &ZNode{Path: path, Data: append([]byte(nil), data...), Version: 1}
		t.byPath[path] = n
		t.byKey[key] = n
	case OpSet:
		if n == nil {
			n = &ZNode{Path: path}
			t.byPath[path] = n
			t.byKey[key] = n
		}
		n.Data = append([]byte(nil), data...)
		n.Version++
	case OpDelete:
		if n == nil {
			return
		}
		delete(t.byPath, path)
		delete(t.byKey, key)
		n = nil
	case OpDeleteIfValue:
		if n == nil || string(n.Data) != string(data) {
			return
		}
		delete(t.byPath, path)
		delete(t.byKey, key)
		n = nil
	default:
		return
	}
	t.fireWatches(path, n)
}

func (t *Tree) fireWatches(path string, n *ZNode) {
	ws := t.watches[path]
	if len(ws) == 0 {
		return
	}
	delete(t.watches, path)
	for _, w := range ws {
		w(n)
	}
}

// Watch registers a one-shot local callback for the next committed
// mutation of path (nil argument = deleted).
func (t *Tree) Watch(path string, fn func(*ZNode)) {
	t.watches[path] = append(t.watches[path], fn)
}

// Read implements the consensus StateMachine read (keyed by path hash).
func (t *Tree) Read(key uint64) []byte {
	if n := t.byKey[key]; n != nil {
		return n.Data
	}
	return nil
}

// GetLocal returns the znode at path from local committed state.
func (t *Tree) GetLocal(path string) *ZNode { return t.byPath[path] }

// Len returns the number of znodes.
func (t *Tree) Len() int { return len(t.byPath) }

// Snapshot implements the join-protocol state transfer: a deterministic
// rebuild script.
func (t *Tree) Snapshot() []wire.Request {
	paths := make([]string, 0, len(t.byPath))
	for p := range t.byPath {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	out := make([]wire.Request, 0, len(paths))
	for _, p := range paths {
		n := t.byPath[p]
		out = append(out, wire.Request{
			Op:  wire.OpWrite,
			Key: PathKey(p),
			Val: EncodeWrite(OpSet, p, n.Data),
		})
	}
	return out
}

// Backend abstracts the consensus engine under a zk server: both
// core.Node (ZKCanopus) and zab.Node (ZooKeeper) satisfy it.
type Backend interface {
	Submit(req wire.Request)
}

// Server is one coordination-service node: a Backend ordering writes
// into a Tree, plus client-facing async operations. Completion callbacks
// fire from Complete, to which the caller routes the engine's replies (a
// Canopus node's committed stream, zab's OnReply).
type Server struct {
	tree    *Tree
	backend Backend

	// Linearizable reads: true routes Get through the consensus engine
	// (ZKCanopus); false reads local state immediately (ZooKeeper).
	linearizableReads bool

	client  uint64
	nextSeq uint64
	pending map[uint64]func(*ZNode)
}

// NewServer wires a server over an engine and its tree. client must be
// unique across the deployment (one per server is natural).
func NewServer(tree *Tree, backend Backend, client uint64, linearizableReads bool) *Server {
	return &Server{
		tree:              tree,
		backend:           backend,
		linearizableReads: linearizableReads,
		client:            client,
		pending:           make(map[uint64]func(*ZNode)),
	}
}

// Tree exposes the underlying znode tree (for watches and local reads).
func (s *Server) Tree() *Tree { return s.tree }

// Complete must be called with every reply of the engine serving this
// server; it resolves the pending operation of this server's requests.
func (s *Server) Complete(req *wire.Request, val []byte) {
	if req.Client != s.client {
		return
	}
	cb, ok := s.pending[req.Seq]
	if !ok {
		return
	}
	delete(s.pending, req.Seq)
	if cb == nil {
		return
	}
	if req.Op == wire.OpRead {
		if val == nil {
			cb(nil)
			return
		}
		cb(&ZNode{Data: val})
		return
	}
	cb(s.tree.GetLocal(pathOf(req)))
}

func pathOf(req *wire.Request) string {
	_, path, _, ok := DecodeWrite(req.Val)
	if !ok {
		return ""
	}
	return path
}

func (s *Server) submitWrite(op WriteOp, path string, data []byte, done func(*ZNode)) {
	s.nextSeq++
	req := wire.Request{
		Client: s.client,
		Seq:    s.nextSeq,
		Op:     wire.OpWrite,
		Key:    PathKey(path),
		Val:    EncodeWrite(op, path, data),
	}
	s.pending[req.Seq] = done
	s.backend.Submit(req)
}

// Create creates path with data; done receives the znode as committed
// (which may be a prior creator's, mirroring ZooKeeper's NodeExists).
func (s *Server) Create(path string, data []byte, done func(*ZNode)) {
	s.submitWrite(OpCreate, path, data, done)
}

// Set upserts path's data.
func (s *Server) Set(path string, data []byte, done func(*ZNode)) {
	s.submitWrite(OpSet, path, data, done)
}

// Delete removes path unconditionally.
func (s *Server) Delete(path string, done func(*ZNode)) {
	s.submitWrite(OpDelete, path, nil, done)
}

// DeleteIfValue removes path only if its data equals data.
func (s *Server) DeleteIfValue(path string, data []byte, done func(*ZNode)) {
	s.submitWrite(OpDeleteIfValue, path, data, done)
}

// Get fetches path. Under ZKCanopus this is a linearizable read ordered
// by the consensus protocol; under ZooKeeper it returns local committed
// state immediately.
func (s *Server) Get(path string, done func(*ZNode)) {
	if !s.linearizableReads {
		done(s.tree.GetLocal(path))
		return
	}
	s.nextSeq++
	req := wire.Request{
		Client: s.client,
		Seq:    s.nextSeq,
		Op:     wire.OpRead,
		Key:    PathKey(path),
	}
	s.pending[req.Seq] = done
	s.backend.Submit(req)
}
