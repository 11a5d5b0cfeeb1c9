package machine

import (
	"bytes"
	"encoding/gob"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"testing"

	"care/internal/debuginfo"
)

// fixtureProgram sets every exported field of a Program.
func fixtureProgram() *Program {
	dbg := debuginfo.New()
	dbg.Lines = []debuginfo.LC{{Line: 3, Col: 9}, {Line: 4, Col: 1}}
	return &Program{
		Name: "lib", CodeBase: AppCodeBase, GlobalBase: 0x5000,
		Code: []MInstr{
			{Op: MMovImm, Rd: R1, Imm: 7, Line: 3, Col: 9},
			{Op: MHost, Host: "print_i64", HostArgs: 1, Sym: "print_i64"},
			{Op: MHalt, Ra: R1},
		},
		Funcs:      []FuncSym{{Name: "k", Entry: 0}},
		GlobalInit: []byte{1, 2, 3},
		Globals:    []GlobalSym{{Name: "g", Off: 8, Size: 8, Addr: 0x5008}},
		Debug:      dbg,
		OptLevel:   1,
	}
}

// TestDecodeProgramSkipsDebug: a decoded program carries every exported
// field of the encoded one except Debug. The fixture sets every such
// field, so a field added to Program but not to execImage fails here
// instead of decoding as zero.
func TestDecodeProgramSkipsDebug(t *testing.T) {
	p := fixtureProgram()
	b, err := p.Encode()
	if err != nil {
		t.Fatal(err)
	}
	q, err := DecodeProgram(b)
	if err != nil {
		t.Fatal(err)
	}
	if q.Debug != nil {
		t.Errorf("Debug decoded: %+v", q.Debug)
	}
	pv, qv := reflect.ValueOf(p).Elem(), reflect.ValueOf(q).Elem()
	for i := 0; i < pv.NumField(); i++ {
		f := pv.Type().Field(i)
		if !f.IsExported() || f.Name == "Debug" {
			continue
		}
		if pv.Field(i).IsZero() {
			t.Errorf("fixture leaves %s zero, so the round trip cannot cover it", f.Name)
		}
		if !reflect.DeepEqual(pv.Field(i).Interface(), qv.Field(i).Interface()) {
			t.Errorf("%s: decoded %v, encoded %v", f.Name, qv.Field(i), pv.Field(i))
		}
	}
	if len(q.codeBytes) != 8*len(q.Code) {
		t.Errorf("decoded program not sealed: %d code bytes for %d instructions", len(q.codeBytes), len(q.Code))
	}
}

// TestEncodeIgnoresEarlierGob: gob numbers the types a process meets in
// first-use order and writes those numbers into what it encodes. A
// process that gob-encoded other types before its first program (the
// store's manifests, say) must still encode a program, and so a
// recovery library and Safeguard's idle footprint, to the same bytes.
// The child process encodes another type first.
func TestEncodeIgnoresEarlierGob(t *testing.T) {
	if out := os.Getenv("CARE_GOB_FIRST_OUT"); out != "" {
		type other struct {
			Names []string
			Sizes []int
		}
		if err := gob.NewEncoder(io.Discard).Encode(other{Names: []string{"x"}, Sizes: []int{1}}); err != nil {
			t.Fatal(err)
		}
		b, err := fixtureProgram().Encode()
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(out, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	out := filepath.Join(t.TempDir(), "program.gob")
	cmd := exec.Command(os.Args[0], "-test.run=^TestEncodeIgnoresEarlierGob$")
	cmd.Env = append(os.Environ(), "CARE_GOB_FIRST_OUT="+out)
	if b, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("child: %v\n%s", err, b)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fixtureProgram().Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("program encodes to %d bytes after another gob type, %d otherwise", len(got), len(want))
	}
}
