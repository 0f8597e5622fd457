// Command docscheck is the documentation gate behind `make docs-check`.
// It keeps the prose layer as live as the code layer: every relative
// markdown link in README.md, ARCHITECTURE.md, ROADMAP.md and the
// examples/ tree must resolve to an existing file, and every fragment
// (#section) must name a real heading in its target document (GitHub
// anchor rules: lowercased, punctuation stripped, spaces to hyphens).
//
// External links (http/https/mailto) are not fetched: the gate must be
// deterministic and offline. Run from the repository root; exits
// nonzero listing every problem found.
package main

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// roots are the documentation entry points checked for link integrity,
// relative to the repository root.
var roots = []string{"README.md", "ARCHITECTURE.md", "ROADMAP.md", "examples"}

func main() {
	var problems []string

	files, err := collectMarkdown(roots)
	if err != nil {
		fmt.Fprintf(os.Stderr, "docscheck: %v\n", err)
		os.Exit(1)
	}
	for _, f := range files {
		probs, err := checkLinks(f)
		if err != nil {
			fmt.Fprintf(os.Stderr, "docscheck: %v\n", err)
			os.Exit(1)
		}
		problems = append(problems, probs...)
	}

	if len(problems) > 0 {
		for _, p := range problems {
			fmt.Fprintf(os.Stderr, "docscheck: %s\n", p)
		}
		fmt.Fprintf(os.Stderr, "docscheck: %d problem(s)\n", len(problems))
		os.Exit(1)
	}
	fmt.Printf("docscheck OK: %d markdown files, links verified\n", len(files))
}

// collectMarkdown expands the root list into the sorted set of .md
// files under it. A missing root is itself a failure: the gate must
// notice a renamed README.
func collectMarkdown(roots []string) ([]string, error) {
	var files []string
	for _, root := range roots {
		info, err := os.Stat(root)
		if err != nil {
			return nil, err
		}
		if !info.IsDir() {
			files = append(files, root)
			continue
		}
		err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() && strings.HasSuffix(path, ".md") {
				files = append(files, path)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(files)
	return files, nil
}

// linkRe matches inline markdown links [text](target). Images
// (![alt](target)) match too via the link part, which is what we want.
var linkRe = regexp.MustCompile(`\[[^\]]*\]\(([^)\s]+)\)`)

// checkLinks verifies every relative link in file: the target path
// exists, and its fragment (if any) names a heading in the target.
func checkLinks(file string) ([]string, error) {
	data, err := os.ReadFile(file)
	if err != nil {
		return nil, err
	}
	var problems []string
	for _, m := range linkRe.FindAllStringSubmatch(stripCodeBlocks(string(data)), -1) {
		target := m[1]
		if strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") {
			continue
		}
		path, frag, _ := strings.Cut(target, "#")
		dest := file
		if path != "" {
			dest = filepath.Join(filepath.Dir(file), filepath.FromSlash(path))
			if _, err := os.Stat(dest); err != nil {
				problems = append(problems, fmt.Sprintf("%s: broken link %q: %v", file, target, err))
				continue
			}
		}
		if frag != "" && strings.HasSuffix(dest, ".md") {
			ok, err := hasAnchor(dest, frag)
			if err != nil {
				return nil, err
			}
			if !ok {
				problems = append(problems, fmt.Sprintf("%s: link %q: no heading anchors to #%s in %s", file, target, frag, dest))
			}
		}
	}
	return problems, nil
}

// stripCodeBlocks blanks fenced code blocks so example snippets cannot
// produce false link matches.
func stripCodeBlocks(s string) string {
	var b strings.Builder
	inFence := false
	for _, line := range strings.Split(s, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			inFence = !inFence
			b.WriteString("\n")
			continue
		}
		if inFence {
			b.WriteString("\n")
			continue
		}
		b.WriteString(line)
		b.WriteString("\n")
	}
	return b.String()
}

// headingRe matches ATX headings.
var headingRe = regexp.MustCompile(`(?m)^#{1,6}\s+(.+?)\s*$`)

// hasAnchor reports whether the markdown file declares a heading whose
// GitHub-style anchor equals frag.
func hasAnchor(file, frag string) (bool, error) {
	data, err := os.ReadFile(file)
	if err != nil {
		return false, err
	}
	for _, m := range headingRe.FindAllStringSubmatch(stripCodeBlocks(string(data)), -1) {
		if slugify(m[1]) == strings.ToLower(frag) {
			return true, nil
		}
	}
	return false, nil
}

// slugify approximates GitHub's heading-anchor algorithm: lowercase,
// drop everything but letters, digits, spaces, and hyphens, then turn
// spaces into hyphens. Inline code spans keep their text.
func slugify(heading string) string {
	heading = strings.ReplaceAll(heading, "`", "")
	var b strings.Builder
	for _, r := range strings.ToLower(heading) {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '-':
			b.WriteRune(r)
		case r == ' ':
			b.WriteRune('-')
		}
	}
	return b.String()
}
