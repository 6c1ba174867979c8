/**
 * @file
 * Documentation consistency checks, so the docs cannot drift from the
 * code they describe:
 *
 *  - every DIFFUSE_* environment knob read by the source tree (via
 *    common/env.h's envInt or getenv) must be documented in
 *    docs/env_reference.md, and every documented knob must still be
 *    read somewhere;
 *  - every repository-relative path referenced from README.md or
 *    docs/*.md (markdown links and backticked paths) must exist;
 *  - the lower layers (src/runtime, src/kernel, src/common) include
 *    no header of the Diffuse layer (src/core): lowering hands the
 *    runtime pieces, never Diffuse's partitions.
 *
 * The source tree location comes from the DIFFUSE_SOURCE_DIR compile
 * definition (set by CMake); the checks are skipped gracefully if the
 * tree has been moved away.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace {

namespace fs = std::filesystem;

#ifndef DIFFUSE_SOURCE_DIR
#define DIFFUSE_SOURCE_DIR "."
#endif

fs::path
sourceDir()
{
    return fs::path(DIFFUSE_SOURCE_DIR);
}

bool
sourceTreePresent()
{
    return fs::exists(sourceDir() / "docs" / "env_reference.md") &&
           fs::exists(sourceDir() / "src" / "common" / "env.h");
}

std::string
slurp(const fs::path &p)
{
    std::ifstream in(p);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

/** C++ sources (.cc, .h, .cpp) under the tree's directory `dir`. */
std::vector<fs::path>
sourceFiles(const std::string &dir)
{
    std::vector<fs::path> out;
    fs::path root = sourceDir() / dir;
    if (!fs::exists(root))
        return out;
    for (const auto &entry : fs::recursive_directory_iterator(root)) {
        if (!entry.is_regular_file())
            continue;
        fs::path ext = entry.path().extension();
        if (ext == ".cc" || ext == ".h" || ext == ".cpp")
            out.push_back(entry.path());
    }
    return out;
}

/** DIFFUSE_* knobs read through envInt()/getenv() under `dirs`. */
std::set<std::string>
knobsUsed(const std::vector<std::string> &dirs)
{
    std::set<std::string> out;
    std::regex use(R"((envInt|getenv)\s*\(\s*"(DIFFUSE_[A-Z0-9_]+)\")");
    for (const std::string &dir : dirs) {
        for (const fs::path &file : sourceFiles(dir)) {
            std::string text = slurp(file);
            for (std::sregex_iterator
                     it(text.begin(), text.end(), use),
                 end;
                 it != end; ++it) {
                out.insert((*it)[2].str());
            }
        }
    }
    return out;
}

/** Knobs documented as `DIFFUSE_*` headings in env_reference.md. */
std::set<std::string>
knobsDocumented()
{
    std::string text =
        slurp(sourceDir() / "docs" / "env_reference.md");
    std::set<std::string> out;
    std::regex doc(R"(`(DIFFUSE_[A-Z0-9_]+)`)");
    for (std::sregex_iterator it(text.begin(), text.end(), doc), end;
         it != end; ++it) {
        out.insert((*it)[1].str());
    }
    return out;
}

TEST(Docs, EveryUsedKnobIsDocumented)
{
    if (!sourceTreePresent())
        GTEST_SKIP() << "source tree not present at "
                     << sourceDir().string();
    std::set<std::string> used = knobsUsed({"src", "bench"});
    ASSERT_FALSE(used.empty());
    std::set<std::string> documented = knobsDocumented();
    for (const std::string &knob : used) {
        EXPECT_TRUE(documented.count(knob))
            << knob << " is read by the source tree but missing from "
            << "docs/env_reference.md";
    }
}

TEST(Docs, EveryDocumentedKnobIsStillUsed)
{
    if (!sourceTreePresent())
        GTEST_SKIP() << "source tree not present";
    std::set<std::string> used = knobsUsed({"src", "bench"});
    for (const std::string &knob : knobsDocumented()) {
        EXPECT_TRUE(used.count(knob))
            << knob << " is documented in docs/env_reference.md but "
            << "nothing reads it anymore";
    }
}

/** Expand one `{a,b}` brace group ("src/x.{h,cc}" -> two paths). */
std::vector<std::string>
expandBraces(const std::string &ref)
{
    std::size_t open = ref.find('{');
    if (open == std::string::npos)
        return {ref};
    std::size_t close = ref.find('}', open);
    if (close == std::string::npos)
        return {ref};
    std::vector<std::string> out;
    std::string inner = ref.substr(open + 1, close - open - 1);
    std::stringstream alts(inner);
    std::string alt;
    while (std::getline(alts, alt, ',')) {
        out.push_back(ref.substr(0, open) + alt +
                      ref.substr(close + 1));
    }
    return out;
}

/** Repo-relative file references in one markdown document. */
std::set<std::string>
fileReferences(const std::string &text)
{
    std::set<std::string> out;
    auto add = [&out](const std::string &raw) {
        if (raw.empty() || raw.front() == '/' || raw.front() == '#')
            return;
        if (raw.find("://") != std::string::npos)
            return; // external link
        if (raw.find('*') != std::string::npos)
            return; // glob: not a single file
        // Strip a trailing anchor.
        std::string ref = raw.substr(0, raw.find('#'));
        // Only path-looking tokens with a known source extension.
        static const std::regex pathlike(
            R"([A-Za-z0-9_.\-/{},]+\.(md|h|cc|cpp|cmake|yml|json|txt)|[A-Za-z0-9_.\-/]+\.\{[a-z,]+\})");
        if (!std::regex_match(ref, pathlike))
            return;
        for (const std::string &one : expandBraces(ref))
            out.insert(one);
    };
    // Markdown links: [text](target)
    std::regex link(R"(\]\(([^)\s]+)\))");
    for (std::sregex_iterator it(text.begin(), text.end(), link), end;
         it != end; ++it) {
        add((*it)[1].str());
    }
    // Backticked paths: `src/core/trace.h`, `docs/x.md`, ...
    std::regex tick(R"(`([^`\s]+/[^`\s]+)`)");
    for (std::sregex_iterator it(text.begin(), text.end(), tick), end;
         it != end; ++it) {
        add((*it)[1].str());
    }
    return out;
}

TEST(Docs, ReferencedFilesExist)
{
    if (!sourceTreePresent())
        GTEST_SKIP() << "source tree not present";
    std::vector<fs::path> mds = {sourceDir() / "README.md"};
    for (const auto &entry :
         fs::directory_iterator(sourceDir() / "docs")) {
        if (entry.path().extension() == ".md")
            mds.push_back(entry.path());
    }
    ASSERT_GE(mds.size(), 2u);
    for (const fs::path &md : mds) {
        ASSERT_TRUE(fs::exists(md)) << md.string();
        std::set<std::string> refs = fileReferences(slurp(md));
        for (const std::string &ref : refs) {
            EXPECT_TRUE(fs::exists(sourceDir() / ref))
                << md.filename().string() << " references " << ref
                << ", which does not exist";
        }
    }
}

TEST(Docs, LowerLayersIncludeNoCoreHeader)
{
    if (!sourceTreePresent())
        GTEST_SKIP() << "source tree not present";
    std::regex core_include(R"(#\s*include\s*["<](\.\./)*core/)");
    std::size_t files = 0;
    for (const char *dir : {"src/runtime", "src/kernel", "src/common"}) {
        for (const fs::path &file : sourceFiles(dir)) {
            files++;
            EXPECT_FALSE(std::regex_search(slurp(file), core_include))
                << file.string() << " includes a core/ header";
        }
    }
    ASSERT_GT(files, 0u);
}

} // namespace
