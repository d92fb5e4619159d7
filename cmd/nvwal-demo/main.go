// Command nvwal-demo is an interactive shell over the embedded database
// with NVWAL journaling on a simulated Nexus 5: a hands-on way to poke
// at transactions, checkpointing, crash recovery and the metrics the
// paper measures.
//
// Commands:
//
//	create <table>              create a table
//	put <table> <key> <value>   insert/replace in an auto-commit txn
//	get <table> <key>           read a record
//	del <table> <key>           delete a record
//	scan <table>                list all records
//	begin | commit | rollback   explicit transaction control
//	checkpoint                  flush the NVRAM log into the db file
//	crash                       power-fail the machine and recover
//	stats                       show metric counters and virtual time
//	quit
package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/memsim"
	"repro/internal/platform"
)

func main() { os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr)) }

// run is the whole command: open the database, then read commands from
// stdin until quit or end of input. It returns the exit code. The shell
// takes no flags; args are accepted and ignored.
func run(_ []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fatal := func(err error) int {
		fmt.Fprintln(stderr, "nvwal-demo:", err)
		return 1
	}
	plat, err := platform.NewNexus5()
	if err != nil {
		return fatal(err)
	}
	opts := db.Options{Journal: db.JournalNVWAL, NVWAL: core.VariantUHLSDiff(), CPU: db.CPUNexus5}
	d, err := db.Open(plat, "demo.db", opts)
	if err != nil {
		return fatal(err)
	}
	fmt.Fprintln(stdout, "nvwal-demo: NVWAL UH+LS+Diff on a simulated Nexus 5 (type 'help')")

	var tx *db.Tx
	crashSeed := int64(1)
	sc := bufio.NewScanner(stdin)
	for fmt.Fprint(stdout, "> "); sc.Scan(); fmt.Fprint(stdout, "> ") {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		cmd, args := fields[0], fields[1:]
		var err error
		switch cmd {
		case "help":
			fmt.Fprintln(stdout, "create put get del scan begin commit rollback checkpoint crash stats quit")
		case "create":
			if len(args) != 1 {
				err = fmt.Errorf("usage: create <table>")
				break
			}
			err = d.CreateTable(args[0])
		case "put":
			if len(args) != 3 {
				err = fmt.Errorf("usage: put <table> <key> <value>")
				break
			}
			err = inTxn(d, &tx, func(t *db.Tx) error {
				return t.Insert(args[0], []byte(args[1]), []byte(args[2]))
			})
		case "get":
			if len(args) != 2 {
				err = fmt.Errorf("usage: get <table> <key>")
				break
			}
			var v []byte
			var ok bool
			if tx != nil {
				v, ok, err = tx.Get(args[0], []byte(args[1]))
			} else {
				v, ok, err = d.Get(args[0], []byte(args[1]))
			}
			if err == nil {
				if ok {
					fmt.Fprintf(stdout, "%s\n", v)
				} else {
					fmt.Fprintln(stdout, "(not found)")
				}
			}
		case "del":
			if len(args) != 2 {
				err = fmt.Errorf("usage: del <table> <key>")
				break
			}
			err = inTxn(d, &tx, func(t *db.Tx) error {
				_, e := t.Delete(args[0], []byte(args[1]))
				return e
			})
		case "scan":
			if len(args) != 1 {
				err = fmt.Errorf("usage: scan <table>")
				break
			}
			// Each record is printed straight from the view the scan hands
			// out, inside the callback, where it is valid.
			scan := d.Scan
			if tx != nil {
				scan = tx.Scan
			}
			n := 0
			err = scan(args[0], func(k, v []byte) bool {
				fmt.Fprintf(stdout, "  %s = %s\n", k, v)
				n++
				return true
			})
			fmt.Fprintf(stdout, "(%d records)\n", n)
		case "begin":
			if tx != nil {
				err = fmt.Errorf("transaction already open")
				break
			}
			tx, err = d.Begin()
		case "commit":
			if tx == nil {
				err = fmt.Errorf("no open transaction")
				break
			}
			err = tx.Commit()
			tx = nil
		case "rollback":
			if tx == nil {
				err = fmt.Errorf("no open transaction")
				break
			}
			tx.Rollback()
			tx = nil
		case "checkpoint":
			err = d.Checkpoint()
		case "crash":
			tx = nil // the open transaction dies with the machine
			plat.PowerFail(memsim.FailDropAll, crashSeed)
			crashSeed++
			if err = plat.Reboot(); err != nil {
				break
			}
			if d, err = db.Open(plat, "demo.db", opts); err == nil {
				fmt.Fprintln(stdout, "machine crashed and recovered; uncommitted work is gone")
			}
		case "stats":
			fmt.Fprintf(stdout, "virtual time: %v\n", plat.Clock.Now())
			fmt.Fprint(stdout, plat.Metrics.Snapshot())
		case "quit", "exit":
			return 0
		default:
			err = fmt.Errorf("unknown command %q (try 'help')", cmd)
		}
		if err != nil {
			fmt.Fprintln(stdout, "error:", err)
		}
	}
	return 0
}

// inTxn runs fn inside the open transaction, or an auto-commit one.
func inTxn(d *db.DB, tx **db.Tx, fn func(*db.Tx) error) error {
	if *tx != nil {
		return fn(*tx)
	}
	t, err := d.Begin()
	if err != nil {
		return err
	}
	if err := fn(t); err != nil {
		t.Rollback()
		return err
	}
	return t.Commit()
}
