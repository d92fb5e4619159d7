// Command nvwal-server serves a NVWAL-journaled key-value store over
// real TCP, as a writable primary or a WAL-shipping read replica. The
// storage stack underneath is the simulated platform (NVRAM + flash on
// a virtual clock), so state lives for the life of the process — this
// is the serving layer's development harness, exercising the exact
// wire protocol, admission control, fencing and replication machinery
// the in-process simulations test, but across real sockets.
//
// A primary and a replica on one machine:
//
//	nvwal-server -listen 127.0.0.1:7070 -replicas 127.0.0.1:7081 \
//	             -epoch 1 -ack-replicas 1 primary
//	nvwal-server -listen 127.0.0.1:7080 -repl-listen 127.0.0.1:7081 \
//	             -epoch 1 replica
//
// Clients speak the length-prefixed protocol in internal/server; see
// examples/replclient for a complete client program.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/netsim"
	"repro/internal/platform"
	"repro/internal/repl"
	"repro/internal/server"
)

func main() {
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, stop))
}

// run is the whole command: parse args, assemble the node, serve until
// stop delivers, shut down. It returns the exit code. The addresses it
// prints are the ones actually bound, so ":0" listeners can be found.
func run(args []string, stdout, stderr io.Writer, stop <-chan os.Signal) int {
	fs := flag.NewFlagSet("nvwal-server", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		listen     = fs.String("listen", "127.0.0.1:7070", "client listen address")
		replListen = fs.String("repl-listen", "", "replication listen address (replica mode)")
		replicas   = fs.String("replicas", "", "comma-separated replica replication addresses to ship to (primary mode)")
		epoch      = fs.Uint64("epoch", 1, "fencing epoch (bump on every promotion)")
		ackN       = fs.Int("ack-replicas", 0, "replica acks a commit waits for (semi-sync; 0 = async)")
		writeRate  = fs.Float64("write-rate", 0, "admission: sustained writes/sec of virtual time (0 = unlimited)")
		writeBurst = fs.Int("write-burst", 0, "admission: token bucket burst (with -write-rate)")
	)
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: nvwal-server [flags] primary|replica")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return 2
	}
	mode := fs.Arg(0)
	fatal := func(err error) int {
		fmt.Fprintln(stderr, "nvwal-server:", err)
		return 1
	}

	plat, err := platform.NewTuna()
	if err != nil {
		return fatal(err)
	}
	lis, err := netsim.ListenTCP(*listen)
	if err != nil {
		return fatal(err)
	}
	defer lis.Close()

	var srv *server.Server
	switch mode {
	case "primary":
		d, err := db.Open(plat, "serve.db", db.Options{
			Journal:    db.JournalNVWAL,
			NVWAL:      core.VariantUHLSDiff(),
			Concurrent: true,
		})
		if err != nil {
			return fatal(err)
		}
		defer d.Close()
		if err := d.CreateTable("kv"); err != nil {
			return fatal(err)
		}
		p, err := repl.NewPrimary(d, repl.PrimaryOptions{Epoch: *epoch, AckReplicas: *ackN})
		if err != nil {
			return fatal(err)
		}
		defer p.Close()
		for _, addr := range splitAddrs(*replicas) {
			p.AddReplica(addr, netsim.DialTCP)
			fmt.Fprintf(stdout, "nvwal-server: shipping to replica %s\n", addr)
		}
		srv = server.New(p, server.Options{
			Epoch:      *epoch,
			WriteRate:  *writeRate,
			WriteBurst: *writeBurst,
			Clock:      plat.Clock,
			Pressure:   d.Pressure,
			Metrics:    plat.Metrics,
		})
		fmt.Fprintf(stdout, "nvwal-server: primary (epoch %d) serving on %s\n", *epoch, lis.Addr())

	case "replica":
		if *replListen == "" {
			return fatal(fmt.Errorf("replica mode requires -repl-listen"))
		}
		r, err := repl.NewReplica(plat, "serve.db", repl.ReplicaOptions{Epoch: *epoch})
		if err != nil {
			return fatal(err)
		}
		defer r.Close()
		rlis, err := netsim.ListenTCP(*replListen)
		if err != nil {
			return fatal(err)
		}
		go r.Serve(rlis)
		srv = server.New(r, server.Options{
			Epoch:    *epoch,
			ReadOnly: true,
			Clock:    plat.Clock,
			Metrics:  plat.Metrics,
		})
		fmt.Fprintf(stdout, "nvwal-server: replica serving reads on %s, following on %s\n", lis.Addr(), rlis.Addr())

	default:
		fs.Usage()
		return 2
	}

	go srv.Serve(lis)
	<-stop
	fmt.Fprintln(stdout, "nvwal-server: shutting down")
	srv.Close()
	return 0
}

func splitAddrs(s string) []string {
	var out []string
	for _, a := range strings.Split(s, ",") {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, a)
		}
	}
	return out
}
