// Persistence: the storage substrate under the knowledge base. Facts are
// made durable with a snapshot file plus a CRC-checked write-ahead log;
// this example opens a database, loads facts, simulates a restart, shows
// recovery, checkpoints, and demonstrates that a torn WAL tail (a crash
// mid-append) and an orphaned snapshot temp file (a crash mid-checkpoint)
// are both healed on the next open.
//
// Run from the repository root:
//
//	go run ./examples/persistence
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"kdb"
)

const rules = `
honor(X) :- student(X, M, G), G > 3.7.
`

func main() {
	ctx := context.Background()
	dir, err := os.MkdirTemp("", "kdb-persist-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	fmt.Println("database directory:", dir)

	// Session 1: create, load, close.
	k, err := kdb.Open(dir)
	if err != nil {
		log.Fatal(err)
	}
	if err := k.LoadString(`
student(ann, math, 3.9).
student(bob, cs, 3.5).
` + rules); err != nil {
		log.Fatal(err)
	}
	if err := k.Assert(kdb.NewAtom("student", kdb.Sym("cora"), kdb.Sym("math"), kdb.Num(3.8))); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("session 1: %d facts stored\n", k.FactCount())
	if err := k.Close(); err != nil {
		log.Fatal(err)
	}

	// Session 2: recover from the WAL (no snapshot yet). Rules are part
	// of the program source, so they are reloaded.
	k2, err := kdb.Open(dir)
	if err != nil {
		log.Fatal(err)
	}
	if err := k2.LoadString(rules); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("session 2: recovered %d facts from the write-ahead log\n", k2.FactCount())
	res, err := k2.ExecStringContext(ctx, `retrieve honor(X).`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("session 2: retrieve honor(X) →\n%s\n", res)

	// Checkpoint folds the log into a snapshot and truncates it.
	if err := k2.CheckpointContext(ctx); err != nil {
		log.Fatal(err)
	}
	walSize := fileSize(filepath.Join(dir, "kdb.wal"))
	snapSize := fileSize(filepath.Join(dir, "kdb.snap"))
	fmt.Printf("after checkpoint: snapshot %d bytes, wal %d bytes\n", snapSize, walSize)
	if err := k2.Close(); err != nil {
		log.Fatal(err)
	}

	// Simulate a crash mid-append: garbage at the end of the WAL.
	f, err := os.OpenFile(filepath.Join(dir, "kdb.wal"), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := f.Write([]byte{0x42, 0x00, 0x13}); err != nil {
		log.Fatal(err)
	}
	f.Close()
	fmt.Println("injected a torn record at the WAL tail (simulated crash)")

	// Session 3: recovery truncates the torn tail and carries on.
	k3, err := kdb.Open(dir)
	if err != nil {
		log.Fatal(err)
	}
	defer k3.Close()
	if err := k3.LoadString(rules); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("session 3: recovered %d facts (snapshot + healed wal)\n", k3.FactCount())
	if err := k3.Assert(kdb.NewAtom("student", kdb.Sym("dan"), kdb.Sym("cs"), kdb.Num(4))); err != nil {
		log.Fatal(err)
	}
	res, err = k3.ExecStringContext(ctx, `retrieve honor(X).`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("session 3: retrieve honor(X) →\n%s\n", res)
	if err := k3.Close(); err != nil {
		log.Fatal(err)
	}

	// Simulate a crash mid-checkpoint: the snapshot is written to a temp
	// file and renamed into place atomically, so a crash between the two
	// strands the temp file. Open sweeps such orphans.
	orphan := filepath.Join(dir, "kdb.snap.tmp-crashed")
	if err := os.WriteFile(orphan, []byte("partial snapshot"), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Println("injected an orphaned snapshot temp file (simulated checkpoint crash)")
	k4, err := kdb.Open(dir)
	if err != nil {
		log.Fatal(err)
	}
	defer k4.Close()
	if _, err := os.Stat(orphan); os.IsNotExist(err) {
		fmt.Printf("session 4: orphan swept on open; %d facts intact\n", k4.FactCount())
	} else {
		fmt.Println("session 4: orphan still present (unexpected)")
	}
}

func fileSize(path string) int64 {
	st, err := os.Stat(path)
	if err != nil {
		return -1
	}
	return st.Size()
}
