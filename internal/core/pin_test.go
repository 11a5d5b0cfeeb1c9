package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"slices"
	"strings"
	"testing"

	"care/internal/machine"
	"care/internal/workloads"
)

// renderProgram writes a canonical rendering of everything a compiled
// image carries: code, symbols, data and debug information, with the
// debug variable map in key order (gob writes maps in iteration order,
// so Program.Encode is no fingerprint).
func renderProgram(w io.Writer, p *machine.Program) {
	fmt.Fprintf(w, "prog %s code@%#x globals@%#x O%d\n", p.Name, p.CodeBase, p.GlobalBase, p.OptLevel)
	for i, in := range p.Code {
		fmt.Fprintf(w, "%d %+v\n", i, in)
	}
	for _, f := range p.Funcs {
		fmt.Fprintf(w, "func %+v\n", f)
	}
	for _, g := range p.Globals {
		fmt.Fprintf(w, "global %+v\n", g)
	}
	fmt.Fprintf(w, "init %x\n", p.GlobalInit)
	if p.Debug == nil {
		return
	}
	fmt.Fprintf(w, "lines %v\n", p.Debug.Lines)
	for _, f := range p.Debug.Funcs {
		fmt.Fprintf(w, "debug func %+v\n", f)
	}
	vars := make([]string, 0, len(p.Debug.Vars))
	for k := range p.Debug.Vars {
		vars = append(vars, k)
	}
	slices.Sort(vars)
	for _, k := range vars {
		fmt.Fprintf(w, "var %q %+v\n", k, p.Debug.Vars[k])
	}
}

// pinnedBuilds holds the digest of renderProgram over each build's
// image, its recovery table and its decoded recovery library, keyed
// workload/O<level>/<defenses joined by +>.
var pinnedBuilds = map[string]string{
	"CoMD/O0/":               "80322b52bf3ecbdd1dfd3981d4d95dddbf89cae94feba49e1e72a35161bad961",
	"CoMD/O0/care":           "e88bc744815a4fc10ab45813c9a7ce556d5c119525d7708b3805ec363e141881",
	"CoMD/O0/presage":        "9e434d1de5d1e203a526b8ce994519500282a32b01f8f32caa29d35b2e101a3d",
	"CoMD/O0/sfi":            "2b7323e6b0a21bcf971c8d07ded10e5df20c14cca58b7b84cbd495af97e6f10f",
	"CoMD/O0/care+presage":   "07341f7ba6e25ee85514a1aa5a09a400903f556b653981f186be6b5a344920bb",
	"CoMD/O1/":               "bdf88aa0e6a616585725744cba979cd6e1713d217faeb59742cf467a8d44fe39",
	"CoMD/O1/care":           "a0eeacf1bfc1afb3bd575d46372e6a11dd8a680b148b8409d5f71dffa16ffc8f",
	"CoMD/O1/presage":        "59d6079c8bd97f60416aa705e5752adff4060ffd2987860736174fa2a8e2dd7a",
	"CoMD/O1/sfi":            "c5a137a604de9b2739f3dc481fa35730f28b446ab26b9aa482584500121bd092",
	"CoMD/O1/care+presage":   "5d883570c0d184b343662b19b1e9b0bb5bef80286c85bd7bbc9843696aa148de",
	"GTC-P/O0/":              "42ecb67e149c072f6775ef92c6fafc3e0c67da85006ddc86f3dfe1d0ae459c99",
	"GTC-P/O0/care":          "377fc2d63c6943ad952ab033eae3ce923bccd8a673cd68023e0ef1c48366ab39",
	"GTC-P/O0/presage":       "e3029509cbefd309a23f351e94204248e03edd41dd172a82fbfe3ce99515c73a",
	"GTC-P/O0/sfi":           "d99624a16c6a0d60096c72823dab336bcd75e3c8ecfb520bc09c8570cbfd4c39",
	"GTC-P/O0/care+presage":  "1b98bbd3bc618fbfc6075a61be09340b3994d2bcc59b8ba6661a4d63bcd5c398",
	"GTC-P/O1/":              "1c2c7a8451cc157ff609628c590601b747e5226ea03a35c8a0b3e9e8547f997e",
	"GTC-P/O1/care":          "afc49633d6126f3d2b0a3e20a2b3dffb261cb9988740015917ce62ec5e680a52",
	"GTC-P/O1/presage":       "3d51b706a8389dacca4b5f047a8dd16e159e563e99246f80f47d64fe54f5ae04",
	"GTC-P/O1/sfi":           "4bc9437d169bfa230603799b5b31064f3057b66b6affcbd1aad6b42138b4c51c",
	"GTC-P/O1/care+presage":  "8b3019b41d5370d89211befa5d65e76c6ea4e5048bac4c91949c97093297da37",
	"HPCCG/O0/":              "3cf8527853aa7777d88c491400550fbcc70597334c5b1a24c56ccb13699fd1a9",
	"HPCCG/O0/care":          "f13e57fed8ad5cdee1c18e20731bde10ca212b978fecf7c87eb30799301fefd3",
	"HPCCG/O0/presage":       "6aedd896a47c2f646315d2bdd7e0d7f35d81345e3116f11f6244add0e4ac72e4",
	"HPCCG/O0/sfi":           "80f948cc1288f0db943b2644a88b494bfb276412ab32f2711e44a7006a5ddac9",
	"HPCCG/O0/care+presage":  "8cc3f9f5586fb03a721def1fb7c2ac89bd0ba95f0b73b681b73ac4002996d522",
	"HPCCG/O1/":              "1ec1408af6fa670e5846987c737508a3a41bada10d04385017881ba19177b559",
	"HPCCG/O1/care":          "7acefcbac2322f4ad4d3c439b1c7d93c1a068d0352f1464c7658224d23861b8a",
	"HPCCG/O1/presage":       "ae68f360b00a68855f1899c9aaa5a788e3ffa441ddeb0470bf4e2b701c95c002",
	"HPCCG/O1/sfi":           "2d8e91763a11de33eff01bb78497071321fea3f26dad4f8b68e7c6f24ea5edaf",
	"HPCCG/O1/care+presage":  "0d192f78c1b8b0a21c684f904a3cb374f6c05bac568c6d31a98ec783722ef22e",
	"miniFE/O0/":             "6debdada4bfedf657a7ae7ca27161cededea6f42d76cfb61a141b4bd7eaa28f5",
	"miniFE/O0/care":         "4e18a927c9c73f9143748516e32e1f4e8bcf13c8d9800738e27671e03cb40c27",
	"miniFE/O0/presage":      "39e01baa0eec4c9d47be8540d51709cd6d308270ef4c47b15202c83a7c0bdbda",
	"miniFE/O0/sfi":          "ce16216c2d0acf2625c82bb8b734ee5bfe96b4d1460c27e818f3422ef8db2162",
	"miniFE/O0/care+presage": "99f9560261870d0a32a9024438ac74c2ef3abc45937e1b840b5cb9f5ffeac043",
	"miniFE/O1/":             "a87004d529573e500ff2c5b344961ed869609aebc0a147fea85bb44697064c2c",
	"miniFE/O1/care":         "e65532fdcf0619bb9e8c0eec953954a325bcda09a4bc789bc41d9ee31a4a5d5c",
	"miniFE/O1/presage":      "c2f8ca5ab20b35fc4714d8c002a0b54344ebc0b7c2928e7c530f8a6b5eca3469",
	"miniFE/O1/sfi":          "ff631ca597d594fd8a16a6af03026388c9b3b1eb673cb07c235fcdb156dd17b2",
	"miniFE/O1/care+presage": "8a4071e6c48d233cbc1c91dae6d763bd2d18fbc89ce687c587bfdb9f3f1f2563",
	"miniMD/O0/":             "f3c4e373ccec82b4b20714a8a13a615fb8994f07ab36eae4631be157ca21f19b",
	"miniMD/O0/care":         "e5289fabaae45b57d289ee814a92c6f14e9b3fd59d87fbad3e1cf6cb15840b01",
	"miniMD/O0/presage":      "3ca296593e11c73959b79804f071eb763738d3bd1ac00ec480e722e64ab00e1b",
	"miniMD/O0/sfi":          "a11ad77785be5eba09dfd679542930d1ece29170df2c7aeeaeff6ec176f7808a",
	"miniMD/O0/care+presage": "bc1fdccb00eab8758c983fb4b6d423fcb6c6a986273e97b312fa57f0985282cc",
	"miniMD/O1/":             "85f3fc1925f79e3a2d505b2745cf3ad0020ecc0dd971bace8a18e1392b52071c",
	"miniMD/O1/care":         "758182620ad53a766c0eff929490857aecd50c41e64d776fea06556be52e591c",
	"miniMD/O1/presage":      "5869f0dced4749b24d2a99ba467ca9451022d1964874bfca58dd8bf4ee2daa2e",
	"miniMD/O1/sfi":          "80557bd334889fd4edef3711d50eb763dd79dcf41590563e5714581d4e2317ec",
	"miniMD/O1/care+presage": "2ee06b08594880d6652ec0821dcae07cda79c43e530ff7d409afb2c2a02c67ce",
}

// TestBuildOutputPinned pins the compiler's output: every workload at
// O0 and O1 under every defense list the experiments build must
// produce exactly the code, symbols, data, debug information, recovery
// table and recovery library recorded in pinnedBuilds.
func TestBuildOutputPinned(t *testing.T) {
	n := 0
	for _, w := range workloads.All() {
		for _, opt := range []int{0, 1} {
			for _, defs := range [][]string{nil, {"care"}, {"presage"}, {"sfi"}, {"care", "presage"}} {
				name := fmt.Sprintf("%s/O%d/%s", w.Name, opt, strings.Join(defs, "+"))
				bin, err := Build(w.Module(workloads.Params{}), BuildOptions{OptLevel: opt, Defenses: defs})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				h := sha256.New()
				renderProgram(h, bin.Prog)
				fmt.Fprintf(h, "table %x\n", bin.RecoveryTable)
				if len(bin.RecoveryLib) > 0 {
					lib, err := machine.DecodeProgram(bin.RecoveryLib)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					renderProgram(h, lib)
				}
				if got, want := hex.EncodeToString(h.Sum(nil)), pinnedBuilds[name]; got != want {
					t.Errorf("%s: build digest %s, pinned %s", name, got, want)
				}
				n++
			}
		}
	}
	if n != len(pinnedBuilds) {
		t.Fatalf("built %d configurations, %d pinned", n, len(pinnedBuilds))
	}
}
