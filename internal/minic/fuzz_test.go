package minic

import (
	"strings"
	"testing"
)

// FuzzParse pins the streaming parser's diagnostics to the order the
// whole-source lexer gives them: Parse never panics; when LexAll
// fails, Parse returns exactly that error, even when a syntax error
// comes first; and when Parse succeeds, LexAll does too. Analysis of a
// successful parse must not panic either.
func FuzzParse(f *testing.F) {
	f.Add("int x = ; @")
	f.Add("int a[3] = {1, -2, 3.5};\nvoid main() { int b[2] = {-1, x}; }")
	f.Add("float w[2][2] = {{1.0, -0x10}, {- -1, (2)}};\nvoid main() {}")
	f.Add("void main() { int x = (int)1.5 + y; } /* open")
	f.Add("int a[2] = {1 2}; 99999999999999999999")
	f.Add("int a[3037000500][3037000500] = {1};")
	f.Add("int a[1][500000] = {" + strings.Repeat("{},", 2000) + "{}};")
	f.Fuzz(func(t *testing.T, src string) {
		file, err := Parse(src)
		_, lexErr := LexAll(src)
		if lexErr != nil {
			if err == nil || err.Error() != lexErr.Error() {
				t.Fatalf("Parse returned %v, want the lexical error %v", err, lexErr)
			}
			return
		}
		if err == nil {
			_ = Analyze(file)
		}
	})
}
