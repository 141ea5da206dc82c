package wire

import (
	"bytes"
	"testing"
)

func txnsForTest() []Txn {
	return []Txn{
		{Ops: []TxnOp{{Op: OpWrite, Key: 1, Val: []byte("v")}}},
		{Guards: []TxnGuard{{Kind: GuardValueEq, Key: 7, Val: nil}},
			Ops: []TxnOp{{Op: OpWrite, Key: 7, Val: []byte("me"), Ephemeral: true}}},
		{Guards: []TxnGuard{{Kind: GuardValueEq, Key: 7, Val: []byte("me")}},
			Ops: []TxnOp{{Op: OpDelete, Key: 7}}},
		{Guards: []TxnGuard{
			{Kind: GuardCycleLE, Key: 3, Cycle: 41},
			{Kind: GuardValueEq, Key: 4, Val: []byte{}},
		}, Ops: []TxnOp{
			{Op: OpWrite, Key: 3, Val: []byte("a")},
			{Op: OpWrite, Key: 4, Val: nil},
			{Op: OpDelete, Key: ^uint64(0)},
		}},
	}
}

func TestTxnRoundTrip(t *testing.T) {
	for i, txn := range txnsForTest() {
		enc := AppendTxn(nil, &txn)
		if len(enc) != TxnSize(&txn) {
			t.Fatalf("txn %d: TxnSize %d, encoded %d", i, TxnSize(&txn), len(enc))
		}
		got, err := ParseTxn(enc)
		if err != nil {
			t.Fatalf("txn %d: %v", i, err)
		}
		if re := AppendTxn(nil, &got); !bytes.Equal(re, enc) {
			t.Fatalf("txn %d: re-encode mismatch", i)
		}
		if len(got.Guards) != len(txn.Guards) || len(got.Ops) != len(txn.Ops) {
			t.Fatalf("txn %d: shape changed: %+v", i, got)
		}
		for j := range txn.Guards {
			w, g := txn.Guards[j], got.Guards[j]
			if g.Kind != w.Kind || g.Key != w.Key || g.Cycle != w.Cycle ||
				!bytes.Equal(g.Val, w.Val) || (g.Val == nil) != (w.Val == nil) {
				t.Fatalf("txn %d guard %d: got %+v want %+v", i, j, g, w)
			}
		}
		for j := range txn.Ops {
			w, g := txn.Ops[j], got.Ops[j]
			if g.Op != w.Op || g.Key != w.Key || g.Ephemeral != w.Ephemeral || !bytes.Equal(g.Val, w.Val) {
				t.Fatalf("txn %d op %d: got %+v want %+v", i, j, g, w)
			}
		}
	}
}

func TestTxnErrors(t *testing.T) {
	// Empty txn rejected.
	empty := Txn{}
	if _, err := ParseTxn(AppendTxn(nil, &empty)); err == nil {
		t.Fatal("empty txn parsed")
	}
	// Read ops are not transactions.
	read := Txn{Ops: []TxnOp{{Op: OpRead, Key: 1}}}
	if _, err := ParseTxn(AppendTxn(nil, &read)); err == nil {
		t.Fatal("txn read op parsed")
	}
	// Ephemeral delete is meaningless.
	ed := Txn{Ops: []TxnOp{{Op: OpDelete, Key: 1, Ephemeral: true}}}
	if _, err := ParseTxn(AppendTxn(nil, &ed)); err == nil {
		t.Fatal("ephemeral delete parsed")
	}
	// Unknown guard kind.
	bg := Txn{Guards: []TxnGuard{{Kind: 9, Key: 1}}, Ops: []TxnOp{{Op: OpWrite, Key: 1}}}
	if _, err := ParseTxn(AppendTxn(nil, &bg)); err == nil {
		t.Fatal("unknown guard kind parsed")
	}
	// Truncation and trailing garbage.
	ok := Txn{Ops: []TxnOp{{Op: OpWrite, Key: 1, Val: []byte("v")}}}
	enc := AppendTxn(nil, &ok)
	if _, err := ParseTxn(enc[:len(enc)-1]); err == nil {
		t.Fatal("truncated txn parsed")
	}
	if _, err := ParseTxn(append(enc, 0)); err == nil {
		t.Fatal("oversized txn parsed")
	}
	// Guard count over the cap.
	big := Txn{Ops: []TxnOp{{Op: OpWrite, Key: 1}}}
	for i := 0; i < MaxTxnGuards+1; i++ {
		big.Guards = append(big.Guards, TxnGuard{Kind: GuardCycleLE, Key: uint64(i)})
	}
	if _, err := ParseTxn(AppendTxn(nil, &big)); err == nil {
		t.Fatal("oversized guard list parsed")
	}
}

func TestTxnResultRoundTrip(t *testing.T) {
	for _, res := range []TxnResult{
		{Committed: true, Failed: TxnFailedNone},
		{Committed: false, Failed: 0},
		{Committed: false, Failed: 3},
	} {
		enc := AppendTxnResult(nil, res)
		got, err := ParseTxnResult(enc)
		if err != nil {
			t.Fatal(err)
		}
		if got != res {
			t.Fatalf("round trip: got %+v want %+v", got, res)
		}
	}
	// A "committed" result naming a failed guard is inconsistent.
	bad := AppendTxnResult(nil, TxnResult{Committed: true, Failed: 2})
	if _, err := ParseTxnResult(bad); err == nil {
		t.Fatal("inconsistent txn result parsed")
	}
}
