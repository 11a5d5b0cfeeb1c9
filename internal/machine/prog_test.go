package machine

import (
	"reflect"
	"testing"

	"care/internal/debuginfo"
)

// TestDecodeProgramSkipsDebug: a decoded program carries every exported
// field of the encoded one except Debug. The fixture sets every such
// field, so a field added to Program but not to execImage fails here
// instead of decoding as zero.
func TestDecodeProgramSkipsDebug(t *testing.T) {
	dbg := debuginfo.New()
	dbg.Lines = []debuginfo.LC{{Line: 3, Col: 9}, {Line: 4, Col: 1}}
	p := &Program{
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
