package machine

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"
	"sync"

	"care/internal/debuginfo"
)

// FuncSym is a function symbol: name plus entry code index.
type FuncSym struct {
	Name  string
	Entry int
}

// GlobalSym describes a global in the image's data segment. Extern
// globals live in another image; their absolute address was baked in at
// compile time (the images are prelinked), so they occupy no space here.
type GlobalSym struct {
	Name   string
	Off    Word // offset within the image's global segment
	Size   Word
	Extern bool
	Addr   Word // absolute address (base+off, or the extern target)
}

// Program is a compiled image: machine code, an initial data segment,
// symbol tables and debug information. Programs are position-dependent:
// CodeBase/GlobalBase were fixed at compile time.
type Program struct {
	Name       string
	CodeBase   Word
	GlobalBase Word
	Code       []MInstr
	Funcs      []FuncSym
	GlobalInit []byte
	Globals    []GlobalSym
	Debug      *debuginfo.Info
	// OptLevel records the optimisation level the image was built with.
	OptLevel int

	// codeBytes is the packed byte image of Code, built once by
	// SealCode and shared read-only by every process that loads this
	// program. It is unexported (and so outside the gob encoding): the
	// compiler seals programs it emits and DecodeProgram seals decoded
	// ones, both before any concurrent use.
	codeBytes []byte

	// ublocks is the predecoded µop plan built lazily (and once) by
	// plan(); like codeBytes it is unexported, outside the gob encoding,
	// and shared read-only by every process executing this program.
	planOnce sync.Once
	ublocks  *blockPlan
}

// EndAddr returns one past the last code address.
func (p *Program) EndAddr() Word { return p.CodeBase + Word(8*len(p.Code)) }

// AddrOf returns the absolute address of code index idx.
func (p *Program) AddrOf(idx int) Word { return p.CodeBase + Word(8*idx) }

// IndexOf returns the code index of an absolute address within this
// program, or -1.
func (p *Program) IndexOf(addr Word) int {
	if addr < p.CodeBase || addr >= p.EndAddr() || (addr-p.CodeBase)%8 != 0 {
		return -1
	}
	return int((addr - p.CodeBase) / 8)
}

// FuncEntry returns the absolute entry address of a named function.
func (p *Program) FuncEntry(name string) (Word, bool) {
	for _, f := range p.Funcs {
		if f.Name == name {
			return p.AddrOf(f.Entry), true
		}
	}
	return 0, false
}

// gob numbers the types a process meets in first-use order and writes
// those numbers into what it encodes. Meeting Program's types at init
// gives them the same numbers in every process, so a program encodes to
// the same bytes (and a recovery library has the same size) whatever
// other gob codec ran first in the process.
func init() {
	if err := gob.NewEncoder(io.Discard).Encode(&Program{}); err != nil {
		panic(err)
	}
}

// Encode serialises the program (the "shared object file" of the
// reproduction — recovery libraries are shipped and lazily loaded in
// this form).
func (p *Program) Encode() ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(p); err != nil {
		return nil, fmt.Errorf("machine: encode program: %w", err)
	}
	return buf.Bytes(), nil
}

// execImage is what running an encoded Program needs: every field but
// Debug. gob matches fields by name and skips the stream's Debug, so
// decoding into it never builds the line and location tables.
type execImage struct {
	Name                 string
	CodeBase, GlobalBase Word
	Code                 []MInstr
	Funcs                []FuncSym
	GlobalInit           []byte
	Globals              []GlobalSym
	OptLevel             int
}

// DecodeProgram deserialises a program image for execution and leaves
// Debug nil: like dlopen, which maps a shared object's loadable segments
// but not its .debug sections, it skips what nothing running the image
// reads, about a third of a recovery library's decode time.
func DecodeProgram(b []byte) (*Program, error) {
	var e execImage
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&e); err != nil {
		return nil, fmt.Errorf("machine: decode program: %w", err)
	}
	p := &Program{Name: e.Name, CodeBase: e.CodeBase, GlobalBase: e.GlobalBase,
		Code: e.Code, Funcs: e.Funcs, GlobalInit: e.GlobalInit,
		Globals: e.Globals, OptLevel: e.OptLevel}
	p.SealCode()
	return p, nil
}

// packCode renders the instruction stream as the canonical 8-byte
// encoding backing the image's .text segment (opcode and register
// operands in the high bytes, the low immediate bits below). The exact
// packing only matters in that it is deterministic: data loads that
// stray into code read these bytes, and stores to them fault.
func packCode(code []MInstr) []byte {
	b := make([]byte, 8*len(code))
	for i := range code {
		in := &code[i]
		w := uint64(in.Op)<<56 | uint64(in.Rd)<<48 | uint64(in.Ra)<<40 |
			uint64(in.Rb)<<32 | uint64(uint32(in.Imm))
		binary.LittleEndian.PutUint64(b[8*i:], w)
	}
	return b
}

// SealCode builds the program's packed code image so that every Load
// shares one read-only backing array. It must be called before the
// program is loaded concurrently (the compiler and DecodeProgram both
// seal); Load of an unsealed program falls back to a private packing.
func (p *Program) SealCode() {
	if p.codeBytes == nil && len(p.Code) > 0 {
		p.codeBytes = packCode(p.Code)
	}
}

// CodeImage returns the program's packed code image, sealing it first
// if needed. The bytes are the canonical content of the binary's .text
// segment — what the content-addressed store dedups sealed code by —
// and must be treated as read-only (they back every live mapping).
func (p *Program) CodeImage() []byte {
	p.SealCode()
	return p.codeBytes
}

// Image is a program mapped into a process: its code range responds to
// instruction fetches and its globals occupy a data segment.
type Image struct {
	Prog      *Program
	GlobalSeg *Segment
	// CodeSeg is the read-only .text mapping (stores to it fault).
	CodeSeg *Segment
}

// Base returns the image's code base address.
func (im *Image) Base() Word { return im.Prog.CodeBase }

// End returns one past the image's last code address.
func (im *Image) End() Word { return im.Prog.EndAddr() }

// Contains reports whether the absolute address is inside this image's
// code — the dladdr() analogue Safeguard uses to attribute a faulting
// PC to the right image (and thus line table).
func (im *Image) Contains(pc Word) bool { return pc >= im.Base() && pc < im.End() }

// Load maps a program into memory without copying its image: the code
// range becomes a read-only .text segment aliasing the program's sealed
// byte image (shared by every process of the binary; stores to it
// fault), and the globals segment maps the initial data copy-on-write,
// materialising a private copy of a page only when the process first
// stores to it. The returned Image can be attached to a CPU.
func Load(mem *Memory, p *Program) (*Image, error) {
	im := &Image{Prog: p}
	if len(p.Code) > 0 {
		code := p.codeBytes
		if code == nil {
			// Unsealed (hand-assembled test programs): pack privately
			// rather than racing to cache on the shared Program.
			code = packCode(p.Code)
		}
		seg, err := mem.MapShared(p.CodeBase, code, p.Name+".text")
		if err != nil {
			return nil, err
		}
		im.CodeSeg = seg
	}
	if len(p.GlobalInit) > 0 {
		seg, err := mem.MapCOW(p.GlobalBase, p.GlobalInit, p.Name+".data")
		if err != nil {
			if im.CodeSeg != nil {
				mem.Unmap(im.CodeSeg)
			}
			return nil, err
		}
		im.GlobalSeg = seg
	}
	return im, nil
}

// Unload removes the image's segments from memory (the dlclose
// analogue; Safeguard unloads the recovery library after each repair to
// keep the steady-state footprint fixed).
func (im *Image) Unload(mem *Memory) {
	if im.GlobalSeg != nil {
		mem.Unmap(im.GlobalSeg)
		im.GlobalSeg = nil
	}
	if im.CodeSeg != nil {
		mem.Unmap(im.CodeSeg)
		im.CodeSeg = nil
	}
}
