// Command nvwal-sql is a SQL shell over the embedded database with
// NVWAL journaling on a simulated Nexus 5 — the closest thing in this
// repository to sitting at a sqlite3 prompt backed by NVRAM.
//
// Meta commands (everything else is SQL):
//
//	.crash     power-fail the machine and recover
//	.stats     metric counters and virtual time
//	.tables    list tables
//	.quit
//
// Example session:
//
//	sql> CREATE TABLE notes (id INTEGER PRIMARY KEY, body TEXT)
//	sql> INSERT INTO notes VALUES (1, 'hello nvram')
//	sql> .crash
//	sql> SELECT * FROM notes
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
	"repro/internal/sql"
)

func main() { os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr)) }

// run is the whole command: open the database, then read statements and
// meta commands from stdin until .quit or end of input. It returns the
// exit code. The shell takes no flags; args are accepted and ignored.
func run(_ []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fatal := func(err error) int {
		fmt.Fprintln(stderr, "nvwal-sql:", err)
		return 1
	}
	plat, err := platform.NewNexus5()
	if err != nil {
		return fatal(err)
	}
	opts := db.Options{Journal: db.JournalNVWAL, NVWAL: core.VariantUHLSDiff(), CPU: db.CPUNexus5}
	d, err := db.Open(plat, "shell.db", opts)
	if err != nil {
		return fatal(err)
	}
	conn, err := sql.Open(d)
	if err != nil {
		return fatal(err)
	}
	fmt.Fprintln(stdout, "nvwal-sql: SQL over NVWAL UH+LS+Diff (meta: .crash .stats .tables .quit)")

	crashSeed := int64(1)
	sc := bufio.NewScanner(stdin)
	for fmt.Fprint(stdout, "sql> "); sc.Scan(); fmt.Fprint(stdout, "sql> ") {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, ".") {
			switch line {
			case ".quit", ".exit":
				return 0
			case ".tables":
				names, err := d.Tables()
				if err != nil {
					fmt.Fprintln(stdout, "error:", err)
					continue
				}
				for _, n := range names {
					if n != "__schema" {
						fmt.Fprintln(stdout, n)
					}
				}
			case ".stats":
				fmt.Fprintf(stdout, "virtual time: %v\n", plat.Clock.Now())
				fmt.Fprint(stdout, plat.Metrics.Snapshot())
			case ".crash":
				plat.PowerFail(memsim.FailDropAll, crashSeed)
				crashSeed++
				if err := plat.Reboot(); err != nil {
					fmt.Fprintln(stdout, "error:", err)
					continue
				}
				d, err = db.Open(plat, "shell.db", opts)
				if err != nil {
					fmt.Fprintln(stdout, "error:", err)
					continue
				}
				conn, err = sql.Open(d)
				if err != nil {
					fmt.Fprintln(stdout, "error:", err)
					continue
				}
				fmt.Fprintln(stdout, "machine crashed and recovered; uncommitted work is gone")
			default:
				fmt.Fprintln(stdout, "unknown meta command (try .quit .crash .stats .tables)")
			}
			continue
		}
		res, err := conn.Exec(line)
		if err != nil {
			fmt.Fprintln(stdout, "error:", err)
			continue
		}
		printResult(stdout, res)
	}
	return 0
}

func printResult(w io.Writer, r *sql.Result) {
	if r.Columns == nil {
		if r.RowsAffected > 0 {
			fmt.Fprintf(w, "%d row(s) affected\n", r.RowsAffected)
		} else {
			fmt.Fprintln(w, "ok")
		}
		return
	}
	widths := make([]int, len(r.Columns))
	for i, c := range r.Columns {
		widths[i] = len(c)
	}
	cells := make([][]string, len(r.Rows))
	for ri, row := range r.Rows {
		cells[ri] = make([]string, len(row))
		for i, v := range row {
			cells[ri][i] = v.String()
			if len(cells[ri][i]) > widths[i] {
				widths[i] = len(cells[ri][i])
			}
		}
	}
	for i, c := range r.Columns {
		fmt.Fprintf(w, "%-*s  ", widths[i], c)
	}
	fmt.Fprintln(w)
	for i := range r.Columns {
		fmt.Fprintf(w, "%s  ", strings.Repeat("-", widths[i]))
	}
	fmt.Fprintln(w)
	for _, row := range cells {
		for i, cell := range row {
			fmt.Fprintf(w, "%-*s  ", widths[i], cell)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "(%d row(s))\n", len(r.Rows))
}
