// Deterministic mutation fuzz of the repository's JSON readers.  The
// shipped solver scenarios and a freshly saved tuning cache are mutated
// from a fixed seed — byte flips, deletions, insertions of JSON
// punctuation and digits, truncation — and every mutant must either load
// or be rejected the documented way: ScenarioConfig throws only
// std::runtime_error / std::invalid_argument, TuningCache::load never
// throws and never yields more entries than were saved.  Run under
// ASan+UBSan, a crash, overflow or undefined conversion fails the job.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>

#include <unistd.h>

#include "core/registry.hpp"
#include "scenario/scenario_config.hpp"
#include "tune/tuning_cache.hpp"

namespace tb {
namespace {

constexpr int kMutantsPerSeed = 2000;

std::string read_text(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// One to four random edits of `text`.
std::string mutate(std::string text, std::mt19937_64& rng) {
  static constexpr char kInserts[] = "{}[]:,\"-+.eE0123456789 ";
  const int edits = 1 + static_cast<int>(rng() % 4);
  for (int e = 0; e < edits && !text.empty(); ++e) {
    const std::size_t pos = rng() % text.size();
    switch (rng() % 8) {
      case 0:
      case 1:
      case 2:  // flip one bit of a byte
        text[pos] = static_cast<char>(text[pos] ^ (1 << (rng() % 8)));
        break;
      case 3:
      case 4:  // delete a short run
        text.erase(pos, 1 + rng() % 8);
        break;
      case 5:
      case 6:  // insert punctuation or a digit
        text.insert(pos, 1, kInserts[rng() % (sizeof(kInserts) - 1)]);
        break;
      default:  // truncate
        text.resize(pos);
        break;
    }
  }
  return text;
}

TEST(ReaderFuzz, ScenarioMutantsLoadOrThrowDocumentedErrors) {
  const std::string dir = TB_SCENARIO_DIR;
  std::mt19937_64 rng(20100419);
  for (const char* file : {"sweep.json", "lid_cavity.json", "quickstart.json",
                           "composite.json"}) {
    const std::string seed = read_text(dir + "/" + file);
    ASSERT_FALSE(seed.empty()) << file;
    int loaded = 0;
    for (int m = 0; m < kMutantsPerSeed; ++m) {
      const std::string mutant = mutate(seed, rng);
      try {
        scenario::ScenarioConfig config;
        config.load_text(mutant, file);
        ++loaded;
      } catch (const std::runtime_error&) {
      } catch (const std::invalid_argument&) {
      } catch (const std::exception& e) {
        ADD_FAILURE() << file << " mutant " << m << " threw " << e.what()
                      << "\n" << mutant;
      }
    }
    // Some mutants (whitespace, digits inside numbers) stay valid, so
    // the success path is exercised too.
    EXPECT_GT(loaded, 0) << file;
  }
}

TEST(ReaderFuzz, TuningCacheMutantsNeverThrowOrGrow) {
  const std::string path = ::testing::TempDir() + "tb_fuzz_cache_" +
                           std::to_string(::getpid()) + ".json";
  constexpr std::size_t kSaved = 3;
  {
    tune::TuningCache cache(path, "fuzz");
    for (std::size_t i = 0; i < kSaved; ++i) {
      tune::Problem key;
      key.nx = key.ny = key.nz = 16 + static_cast<int>(i);
      tune::Candidate plan;
      plan.variant = i == 0 ? "compressed" : "wavefront";
      core::apply_variant(plan.cfg, plan.variant);
      plan.measured_mlups = 100.25 + static_cast<double>(i);
      cache.put(key, plan);
    }
    ASSERT_TRUE(cache.save());
  }
  const std::string seed = read_text(path);
  std::mt19937_64 rng(20100420);
  ::testing::internal::CaptureStderr();  // one warning per unparsable mutant
  for (int m = 0; m < kMutantsPerSeed; ++m) {
    {
      std::ofstream out(path, std::ios::trunc);
      out << mutate(seed, rng);
    }
    tune::TuningCache cache(path, "fuzz");
    std::size_t n = 0;
    EXPECT_NO_THROW(n = cache.load()) << "mutant " << m;
    EXPECT_LE(n, kSaved) << "mutant " << m;
  }
  (void)::testing::internal::GetCapturedStderr();
  std::remove(path.c_str());
}

}  // namespace
}  // namespace tb
