package lbqid

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"histanon/internal/geo"
	"histanon/internal/tgran"
)

// Parse reads LBQID definitions in the library's block format:
//
//	lbqid "HomeOfficeCommute" {
//	    element "AreaCondominium" area [0,100]x[0,100]     time [7am,8am]
//	    element "AreaOfficeBldg"  area [500,600]x[0,100]   time [8am,9am]
//	    element "AreaOfficeBldg"  area [500,600]x[0,100]   time [4pm,6pm]
//	    element "AreaCondominium" area [0,100]x[0,100]     time [5pm,7pm]
//	    recurrence 3.Weekdays * 2.Weeks
//	}
//
// which is the paper's Example 2 verbatim. Blank lines and lines
// starting with '#' are ignored. Several blocks may follow one another.
// The names the result keeps are copies, so it holds none of the lines
// it was parsed from.
func Parse(r io.Reader) ([]*LBQID, error) {
	var out []*LBQID
	var cur *LBQID
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		switch {
		case strings.HasPrefix(line, "lbqid"):
			if cur != nil {
				return nil, fmt.Errorf("line %d: nested lbqid block", lineNo)
			}
			name, err := parseHeader(line)
			if err != nil {
				return nil, fmt.Errorf("line %d: %v", lineNo, err)
			}
			cur = &LBQID{Name: name}
		case line == "}":
			if cur == nil {
				return nil, fmt.Errorf("line %d: '}' outside a block", lineNo)
			}
			if err := cur.Validate(); err != nil {
				return nil, fmt.Errorf("line %d: %v", lineNo, err)
			}
			out = append(out, cur)
			cur = nil
		case strings.HasPrefix(line, "element"):
			if cur == nil {
				return nil, fmt.Errorf("line %d: element outside a block", lineNo)
			}
			e, err := parseElement(line)
			if err != nil {
				return nil, fmt.Errorf("line %d: %v", lineNo, err)
			}
			cur.Elements = append(cur.Elements, e)
		case strings.HasPrefix(line, "recurrence"):
			if cur == nil {
				return nil, fmt.Errorf("line %d: recurrence outside a block", lineNo)
			}
			rec, err := tgran.ParseRecurrence(strings.TrimSpace(strings.TrimPrefix(line, "recurrence")))
			if err != nil {
				return nil, fmt.Errorf("line %d: %v", lineNo, err)
			}
			cur.Recurrence = rec
		default:
			return nil, fmt.Errorf("line %d: unrecognized directive %q", lineNo, line)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if cur != nil {
		return nil, fmt.Errorf("unterminated lbqid block %q", cur.Name)
	}
	return out, nil
}

// ParseString is Parse over an in-memory definition.
func ParseString(s string) ([]*LBQID, error) {
	return Parse(strings.NewReader(s))
}

// ParseOne parses a definition expected to hold exactly one LBQID.
func ParseOne(s string) (*LBQID, error) {
	qs, err := ParseString(s)
	if err != nil {
		return nil, err
	}
	if len(qs) != 1 {
		return nil, fmt.Errorf("expected exactly one lbqid, found %d", len(qs))
	}
	return qs[0], nil
}

func parseHeader(line string) (string, error) {
	rest := strings.TrimSpace(strings.TrimPrefix(line, "lbqid"))
	if !strings.HasSuffix(rest, "{") {
		return "", fmt.Errorf("lbqid header must end with '{'")
	}
	rest = strings.TrimSpace(strings.TrimSuffix(rest, "{"))
	name, err := unquote(rest)
	if err != nil {
		return "", fmt.Errorf("bad lbqid name: %v", err)
	}
	return strings.Clone(name), nil
}

func parseElement(line string) (Element, error) {
	rest := strings.TrimSpace(strings.TrimPrefix(line, "element"))
	var e Element
	// Optional quoted name first.
	if strings.HasPrefix(rest, `"`) {
		end := strings.Index(rest[1:], `"`)
		if end < 0 {
			return e, fmt.Errorf("unterminated element name")
		}
		e.Name = strings.Clone(rest[1 : 1+end])
		rest = strings.TrimSpace(rest[end+2:])
	}
	areaKw := strings.Index(rest, "area")
	timeKw := strings.Index(rest, "time")
	if areaKw != 0 || timeKw < 0 {
		return e, fmt.Errorf("element needs 'area ... time ...'")
	}
	areaStr := strings.TrimSpace(rest[len("area"):timeKw])
	timeStr := strings.TrimSpace(rest[timeKw+len("time"):])
	area, err := ParseRect(areaStr)
	if err != nil {
		return e, err
	}
	w, err := tgran.ParseUInterval(timeStr)
	if err != nil {
		return e, err
	}
	e.Area = area
	e.Window = w
	return e, nil
}

// ParseRect parses "[x1,x2]x[y1,y2]" into a rectangle.
func ParseRect(s string) (geo.Rect, error) {
	parts := strings.Split(s, "]x[")
	if len(parts) != 2 {
		return geo.Rect{}, fmt.Errorf("malformed area %q (want [x1,x2]x[y1,y2])", s)
	}
	xs := strings.TrimPrefix(strings.TrimSpace(parts[0]), "[")
	ys := strings.TrimSuffix(strings.TrimSpace(parts[1]), "]")
	x1, x2, err := parsePair(xs)
	if err != nil {
		return geo.Rect{}, fmt.Errorf("malformed area %q: %v", s, err)
	}
	y1, y2, err := parsePair(ys)
	if err != nil {
		return geo.Rect{}, fmt.Errorf("malformed area %q: %v", s, err)
	}
	r := geo.NewRect(geo.Point{X: x1, Y: y1}, geo.Point{X: x2, Y: y2})
	return r, nil
}

func parsePair(s string) (float64, float64, error) {
	parts := strings.Split(s, ",")
	if len(parts) != 2 {
		return 0, 0, fmt.Errorf("want two comma-separated numbers in %q", s)
	}
	a, err := strconv.ParseFloat(strings.TrimSpace(parts[0]), 64)
	if err != nil {
		return 0, 0, err
	}
	b, err := strconv.ParseFloat(strings.TrimSpace(parts[1]), 64)
	if err != nil {
		return 0, 0, err
	}
	return a, b, nil
}

func unquote(s string) (string, error) {
	if len(s) < 2 || !strings.HasPrefix(s, `"`) || !strings.HasSuffix(s, `"`) {
		return "", fmt.Errorf("expected a quoted string, got %q", s)
	}
	return s[1 : len(s)-1], nil
}
