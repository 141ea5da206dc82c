package main

import (
	"errors"
	"strings"
	"testing"
	"time"

	"canopus/client"
	"canopus/internal/core"
	"canopus/internal/livecluster"
)

// TestREPL drives the interactive front end against a live node: the
// replies a person typing at it reads, miss, delete and mistakes included.
func TestREPL(t *testing.T) {
	c, err := livecluster.Start(livecluster.Config{
		Nodes: 1,
		Node:  core.Config{CycleInterval: 2 * time.Millisecond, TickInterval: 2 * time.Millisecond},
		Seed:  7,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop(5 * time.Second)
	cl, err := client.New(client.Config{Endpoints: []string{c.ClientAddr(0)}, RequestTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	in := "PUT 3 abc def\nGET 3\nGET 4\n\nDEL 3\nget 3\nFROB\nGET x\nPUT 3\nQUIT\nPUT 9 unreached\n"
	want := "OK\nVALUE abc def\nNIL\nOK\nNIL\nERR unknown command\nERR bad key\nERR usage: PUT <key> <value>\n"
	var out strings.Builder
	if err := repl(cl, client.Linearizable, strings.NewReader(in), &out); err != nil {
		t.Fatal(err)
	}
	if out.String() != want {
		t.Fatalf("REPL printed\n%s\nwant\n%s", out.String(), want)
	}
	if _, err := cl.Get(t.Context(), 9); !errors.Is(err, client.ErrNotFound) {
		t.Fatalf("a command behind QUIT ran (Get(9) err %v)", err)
	}
}
