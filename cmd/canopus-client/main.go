// Command canopus-client talks to canopus-server's client port through
// the public canopus/client package.
//
// Interactive: run with no arguments and type "PUT 7 hello", "GET 7",
// "DEL 7" or "QUIT"; every line is answered with OK, VALUE <value>, NIL or
// ERR <reason>.
//
// One-shot: pass a command —
//
//	canopus-client -addr 127.0.0.1:8000 put 7 hello
//	canopus-client -addr 127.0.0.1:8000 get 7
//	canopus-client -addr 127.0.0.1:8000 -consistency stale get 7
//	canopus-client -addr 127.0.0.1:8000 del 7
//
// -addr takes a comma-separated endpoint list; the client fails over
// along it. -consistency selects the read path: linearizable (default,
// ordered through consensus), sequential (local committed state,
// monotone per session) or stale (local committed state, immediate).
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	"canopus/client"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8000", "comma-separated canopus-server client addresses")
	level := flag.String("consistency", "linearizable", "read consistency: linearizable | sequential | stale")
	timeout := flag.Duration("timeout", 15*time.Second, "per-request timeout")
	flag.Parse()

	consistency, err := parseLevel(*level)
	if err != nil {
		log.Fatal("canopus-client: ", err)
	}
	cl, err := client.New(client.Config{Endpoints: strings.Split(*addr, ","), RequestTimeout: *timeout})
	if err != nil {
		log.Fatal("canopus-client: ", err)
	}
	defer cl.Close()

	if flag.NArg() > 0 {
		oneShot(cl, consistency, flag.Args())
		return
	}
	fmt.Printf("connected to %s; commands: PUT <key> <value> | GET <key> | DEL <key> | QUIT\n", *addr)
	if err := repl(cl, consistency, os.Stdin, os.Stdout); err != nil {
		log.Fatal("canopus-client: ", err)
	}
}

// repl answers one line of out per command line of in, until QUIT or the
// end of in. A command the cluster rejects is answered ERR and the loop
// goes on; only a failing in or out ends it with an error.
func repl(cl *client.Client, consistency client.Consistency, in io.Reader, out io.Writer) error {
	sc := bufio.NewScanner(in)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		if strings.EqualFold(fields[0], "QUIT") {
			return nil
		}
		reply, err := execLine(cl, consistency, fields)
		if err != nil {
			reply = "ERR " + err.Error()
		}
		if _, err := fmt.Fprintln(out, reply); err != nil {
			return err
		}
	}
	return sc.Err()
}

// execLine runs one PUT, GET or DEL line and returns its reply.
func execLine(cl *client.Client, consistency client.Consistency, fields []string) (string, error) {
	cmd := strings.ToUpper(fields[0])
	switch {
	case cmd != "PUT" && cmd != "GET" && cmd != "DEL":
		return "", errors.New("unknown command")
	case cmd == "PUT" && len(fields) < 3:
		return "", errors.New("usage: PUT <key> <value>")
	case cmd != "PUT" && len(fields) != 2:
		return "", fmt.Errorf("usage: %s <key>", cmd)
	}
	key, err := strconv.ParseUint(fields[1], 10, 64)
	if err != nil {
		return "", errors.New("bad key")
	}
	ctx := context.Background()
	switch cmd {
	case "PUT":
		return "OK", cl.Put(ctx, key, []byte(strings.Join(fields[2:], " ")))
	case "DEL":
		return "OK", cl.Delete(ctx, key)
	}
	val, err := cl.Get(ctx, key, client.WithConsistency(consistency))
	if errors.Is(err, client.ErrNotFound) {
		return "NIL", nil
	}
	return "VALUE " + string(val), err
}

// oneShot executes a single command through the typed client API.
func oneShot(cl *client.Client, consistency client.Consistency, args []string) {
	ctx := context.Background()

	switch cmd := strings.ToLower(args[0]); cmd {
	case "put":
		if len(args) < 3 {
			log.Fatal("canopus-client: usage: put <key> <value>")
		}
		if err := cl.Put(ctx, parseKey(args[1]), []byte(strings.Join(args[2:], " "))); err != nil {
			log.Fatal("canopus-client: ", err)
		}
		fmt.Println("OK")
	case "get":
		if len(args) != 2 {
			log.Fatal("canopus-client: usage: get <key>")
		}
		val, err := cl.Get(ctx, parseKey(args[1]), client.WithConsistency(consistency))
		if errors.Is(err, client.ErrNotFound) {
			fmt.Println("NIL")
			os.Exit(1)
		}
		if err != nil {
			log.Fatal("canopus-client: ", err)
		}
		fmt.Printf("%s\n", val)
	case "del":
		if len(args) != 2 {
			log.Fatal("canopus-client: usage: del <key>")
		}
		if err := cl.Delete(ctx, parseKey(args[1])); err != nil {
			log.Fatal("canopus-client: ", err)
		}
		fmt.Println("OK")
	default:
		log.Fatalf("canopus-client: unknown command %q (want put|get|del)", cmd)
	}
}

func parseLevel(s string) (client.Consistency, error) {
	switch strings.ToLower(s) {
	case "linearizable", "":
		return client.Linearizable, nil
	case "sequential":
		return client.Sequential, nil
	case "stale":
		return client.Stale, nil
	default:
		return 0, fmt.Errorf("unknown consistency %q (want linearizable|sequential|stale)", s)
	}
}

func parseKey(s string) uint64 {
	k, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		log.Fatalf("canopus-client: bad key %q", s)
	}
	return k
}
