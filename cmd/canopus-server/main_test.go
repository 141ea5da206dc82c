package main

import (
	"reflect"
	"strings"
	"testing"

	"canopus/internal/wire"
)

func TestTopologyFlags(t *testing.T) {
	for _, tc := range []struct {
		name       string
		id         int
		peers, sls string
		wantErr    string // substring naming the flag; "" for valid
		wantLeaves [][]wire.NodeID
	}{
		{name: "id beyond peers", id: 3, peers: "a,b,c", wantErr: "-id 3"},
		{name: "negative id", id: -1, peers: "a,b,c", wantErr: "-id -1"},
		{name: "missing index", peers: "a,b,c", sls: "0,1", wantErr: "-superleaves: node 2 of -peers is in no super-leaf"},
		{name: "extra index", peers: "a,b,c", sls: "0,1,2;3", wantErr: "-superleaves: node 3 has no address"},
		{name: "duplicate index", peers: "a,b,c", sls: "0,1;1,2", wantErr: "-superleaves: node 1 appears twice"},
		{name: "valid default", id: 2, peers: "a, b ,c", wantLeaves: [][]wire.NodeID{{0, 1, 2}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			peers, sls, err := topology(tc.id, tc.peers, tc.sls)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("err = %v, want one containing %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(sls, tc.wantLeaves) {
				t.Fatalf("super-leaves = %v, want %v", sls, tc.wantLeaves)
			}
			if want := map[wire.NodeID]string{0: "a", 1: "b", 2: "c"}; !reflect.DeepEqual(peers, want) {
				t.Fatalf("peers = %v, want %v", peers, want)
			}
		})
	}
}
