// Command minerule is an interactive shell and script runner for the
// tightly-coupled mining system: it accepts plain SQL and MINE RULE
// statements side by side, against one in-memory database.
//
// Usage:
//
//	minerule                  # interactive shell on stdin
//	minerule -f script.sql    # run a script (';'-separated statements)
//	minerule -e "stmt"        # run one statement string
//	minerule -csv table=f.csv -hdr "a:int,b:string" ...  # preload CSV
//	minerule -db dir          # durable database (WAL + checkpointed heap files)
//
// MINE RULE statements are detected by their leading keywords; anything
// else goes to the SQL engine. Query results print as aligned tables.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"

	"minerule"
	mrparse "minerule/internal/minerule/parse"
	"minerule/internal/sql/lex"
)

func main() {
	var (
		file    = flag.String("f", "", "script file to execute")
		expr    = flag.String("e", "", "statement(s) to execute")
		csvSpec = flag.String("csv", "", "preload CSV: table=path")
		hdr     = flag.String("hdr", "", "CSV header spec: name:type,name:type,…")
		replace = flag.Bool("replace", true, "MINE RULE replaces existing output tables")
		trace   = flag.Bool("trace", false, "print the kernel span tree after each MINE RULE run")
		dbDir   = flag.String("db", "", "durable database directory (WAL-backed; created if missing)")
	)
	flag.Parse()

	var sys *minerule.System
	if *dbDir != "" {
		var err error
		sys, err = minerule.Open(minerule.WithStorage(*dbDir))
		if err != nil {
			fatal(err)
		}
		defer sys.Close()
	} else {
		sys, _ = minerule.Open()
	}

	if *csvSpec != "" {
		parts := strings.SplitN(*csvSpec, "=", 2)
		if len(parts) != 2 || *hdr == "" {
			fatal(fmt.Errorf("-csv needs table=path and -hdr"))
		}
		f, err := os.Open(parts[1])
		if err != nil {
			fatal(err)
		}
		n, err := sys.ImportCSV(parts[0], strings.Split(*hdr, ","), f)
		f.Close()
		if err != nil {
			fatal(err)
		}
		fmt.Printf("loaded %d rows into %s\n", n, parts[0])
	}

	ro := runOpts{replace: *replace, trace: *trace}
	switch {
	case *expr != "":
		if err := runScript(sys, *expr, ro); err != nil {
			fatal(err)
		}
	case *file != "":
		data, err := os.ReadFile(*file)
		if err != nil {
			fatal(err)
		}
		if err := runScript(sys, string(data), ro); err != nil {
			fatal(err)
		}
	default:
		repl(sys, ro)
	}
}

// runOpts carries the per-statement flags through the script runner.
type runOpts struct {
	replace bool // MINE RULE replaces existing output tables
	trace   bool // print the kernel span tree after each MINE RULE
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "minerule:", err)
	os.Exit(1)
}

// runScript executes a ';'-separated mixed script.
func runScript(sys *minerule.System, script string, ro runOpts) error {
	for _, stmt := range splitStatements(script) {
		if err := runOne(sys, stmt, ro); err != nil {
			return err
		}
	}
	return nil
}

func runOne(sys *minerule.System, stmt string, ro runOpts) error {
	// "EXPLAIN MINE RULE …" prints the classification and the generated
	// SQL programs instead of running the statement. Plain EXPLAIN
	// [ANALYZE] SELECT goes straight to the engine, which evaluates it
	// natively and returns the operator tree as QUERY PLAN rows.
	rest, explain, mine := mrparse.Target(stmt)
	if mine && explain {
		ex, err := sys.Explain(rest)
		if err != nil {
			return err
		}
		for _, l := range ex.Lines {
			fmt.Println(l)
		}
		return nil
	}
	if mine {
		var opts []minerule.Option
		if ro.replace {
			opts = append(opts, minerule.WithReplaceOutput())
		}
		if ro.trace {
			opts = append(opts, minerule.WithTrace())
		}
		res, err := sys.Mine(stmt, opts...)
		if err != nil {
			return err
		}
		fmt.Printf("-- class %s, core %s, %d rule(s) into %s (+_Bodies, _Heads); %v\n",
			res.Class, res.Algorithm, res.RuleCount, res.OutputTable, res.Timings.Total().Round(1000))
		if ro.trace {
			fmt.Print(res.Stats.Trace.String())
		}
		for i, r := range res.Rules {
			if i == 25 {
				fmt.Printf("   … and %d more (query %s for the rest)\n", res.RuleCount-25, res.OutputTable)
				break
			}
			fmt.Println("   " + r.String())
		}
		return nil
	}
	upper := strings.ToUpper(strings.TrimSpace(stmt))
	if strings.HasPrefix(upper, "SELECT") || strings.HasPrefix(upper, "EXPLAIN") {
		out, err := sys.Format(stmt)
		if err != nil {
			return err
		}
		fmt.Print(out)
		return nil
	}
	return sys.Exec(stmt)
}

// splitStatements splits a script at its ';' tokens. A script the SQL
// lexer rejects runs as one statement, so the parser reports the error.
func splitStatements(s string) []string {
	sts, err := lex.Split(s)
	if err != nil {
		return []string{strings.TrimSpace(s)}
	}
	return sts
}

// repl reads statements from stdin; a statement ends at a line whose
// last non-space byte is ';'.
func repl(sys *minerule.System, ro runOpts) {
	fmt.Println("minerule shell — SQL and MINE RULE statements, ';' terminated. Ctrl-D exits.")
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var buf strings.Builder
	prompt := func() {
		if buf.Len() == 0 {
			fmt.Print("minerule> ")
		} else {
			fmt.Print("      ... ")
		}
	}
	prompt()
	for sc.Scan() {
		line := sc.Text()
		buf.WriteString(line)
		buf.WriteByte('\n')
		if strings.HasSuffix(strings.TrimSpace(line), ";") {
			for _, stmt := range splitStatements(buf.String()) {
				if err := runOne(sys, stmt, ro); err != nil {
					fmt.Fprintln(os.Stderr, "error:", err)
				}
			}
			buf.Reset()
		}
		prompt()
	}
	fmt.Println()
}
