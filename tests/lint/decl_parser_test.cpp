// Self-test for cbs_lint's declaration front-end (tools/cbs_lint/
// decl_index.*): nested classes, class templates, default member
// initializers, out-of-line definition attachment, and the include graph.
// The lint walk skips this file (its string literals are C++ fragments
// that would otherwise read as declarations of the scanned tree).

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "decl_index.hpp"
#include "lint.hpp"

namespace {

using cbslint::ClassDecl;
using cbslint::DeclIndex;
using cbslint::MemberDecl;
using cbslint::MethodDecl;
using cbslint::ParsedFile;
using cbslint::SourceFile;

SourceFile make_file(const std::string& text, const std::string& rel) {
  SourceFile f;
  f.path = rel;
  std::istringstream in(text);
  std::string line;
  bool in_block = false;
  while (std::getline(in, line)) {
    f.code.push_back(cbslint::strip_line(line, in_block));
    f.raw.push_back(line);
  }
  return f;
}

DeclIndex index_of(const std::string& text,
                   const std::string& rel = "src/core/test.hpp") {
  std::vector<ParsedFile> parsed;
  parsed.push_back(cbslint::parse_file(make_file(text, rel)));
  DeclIndex idx;
  idx.build(std::move(parsed));
  return idx;
}

const ClassDecl& get_class(const DeclIndex& idx, const std::string& name) {
  const auto it = idx.classes().find(name);
  EXPECT_NE(it, idx.classes().end()) << "class not indexed: " << name;
  return it->second;
}

const MemberDecl* find_member(const ClassDecl& cls, const std::string& name) {
  for (const MemberDecl& m : cls.members) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

const MethodDecl* find_method(const ClassDecl& cls, const std::string& name) {
  for (const MethodDecl& m : cls.methods) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

TEST(DeclParser, MembersWithDefaultInitializers) {
  const DeclIndex idx = index_of(R"(
namespace cbs::core {
class Widget {
 public:
  void tick();
 private:
  int plain_;
  double braced_{1.5};
  long assigned_ = 42;
  static int shared_;
  Registry& reg_;
  Registry* raw_;
};
}  // namespace cbs::core
)");
  const ClassDecl& cls = get_class(idx, "cbs::core::Widget");
  ASSERT_NE(find_member(cls, "plain_"), nullptr);
  ASSERT_NE(find_member(cls, "braced_"), nullptr);
  ASSERT_NE(find_member(cls, "assigned_"), nullptr);
  const MemberDecl* shared = find_member(cls, "shared_");
  ASSERT_NE(shared, nullptr);
  EXPECT_TRUE(shared->is_static);
  ASSERT_NE(find_member(cls, "reg_"), nullptr);
  ASSERT_NE(find_member(cls, "raw_"), nullptr);
  // Method declarations never leak into the member table.
  EXPECT_EQ(find_member(cls, "tick"), nullptr);
  ASSERT_NE(find_method(cls, "tick"), nullptr);
  EXPECT_FALSE(find_method(cls, "tick")->has_body);
}

TEST(DeclParser, NestedClassesGetQualifiedNames) {
  const DeclIndex idx = index_of(R"(
namespace cbs::net {
class Link {
 public:
  struct Cold {
    EventId activation_event{};
  };
 private:
  Cold cold_;
  EventId timer_{};
};
}  // namespace cbs::net
)");
  const ClassDecl& outer = get_class(idx, "cbs::net::Link");
  const ClassDecl& inner = get_class(idx, "cbs::net::Link::Cold");
  EXPECT_NE(find_member(outer, "timer_"), nullptr);
  EXPECT_NE(find_member(outer, "cold_"), nullptr);
  const MemberDecl* ev = find_member(inner, "activation_event");
  ASSERT_NE(ev, nullptr);
  EXPECT_NE(ev->type_text.find("EventId"), std::string::npos);
  // The nested class's members stay out of the outer table and vice versa.
  EXPECT_EQ(find_member(outer, "activation_event"), nullptr);
  EXPECT_EQ(find_member(inner, "timer_"), nullptr);
  EXPECT_EQ(idx.enclosing("cbs::net::Link::Cold"), &outer);
  EXPECT_EQ(idx.enclosing("cbs::net::Link"), nullptr);
}

TEST(DeclParser, TemplatedClassAndTemplatedMembers) {
  const DeclIndex idx = index_of(R"(
namespace cbs::util {
template <typename K, typename V>
class FlatMap {
 public:
  V& at(const K& key);
 private:
  std::vector<std::pair<K, V>> entries_;
};
class Holder {
 private:
  FlatMap<std::uint64_t, double> table_;
  std::vector<std::pair<int, int>> pairs_{};
};
}  // namespace cbs::util
)");
  const ClassDecl& tmpl = get_class(idx, "cbs::util::FlatMap");
  ASSERT_NE(find_member(tmpl, "entries_"), nullptr);
  const ClassDecl& holder = get_class(idx, "cbs::util::Holder");
  const MemberDecl* table = find_member(holder, "table_");
  ASSERT_NE(table, nullptr);
  // The comma inside the template argument list must not split the member.
  EXPECT_NE(table->type_text.find("FlatMap"), std::string::npos);
  ASSERT_NE(find_member(holder, "pairs_"), nullptr);
}

TEST(DeclParser, OutOfLineDefinitionsAttachToTheirClass) {
  const std::string header = R"(
namespace cbs::core {
class Controller {
 public:
  Controller(Simulation& dst, const Controller& src);
  void on_event(std::uint32_t kind, std::uint64_t arg);
 private:
  EventId probe_event_{};
};
}  // namespace cbs::core
)";
  const std::string source = R"(
namespace cbs::core {
Controller::Controller(Simulation& dst, const Controller& src)
    : probe_event_(src.probe_event_) {}
void Controller::on_event(std::uint32_t kind, std::uint64_t arg) {
  probe_event_ = sim_.schedule_in(1.0, {target_, kind, arg});
}
}  // namespace cbs::core
)";
  std::vector<ParsedFile> parsed;
  parsed.push_back(
      cbslint::parse_file(make_file(header, "src/core/controller.hpp")));
  parsed.push_back(
      cbslint::parse_file(make_file(source, "src/core/controller.cpp")));
  DeclIndex idx;
  idx.build(std::move(parsed));
  const ClassDecl& cls = get_class(idx, "cbs::core::Controller");
  bool saw_ctor_body = false;
  bool saw_handler_body = false;
  for (const MethodDecl& m : cls.methods) {
    if (m.name == "Controller" && m.has_body) {
      saw_ctor_body = true;
      EXPECT_NE(m.init_list.find("probe_event_"), std::string::npos);
    }
    if (m.name == "on_event" && m.has_body) {
      saw_handler_body = true;
      EXPECT_NE(m.body.find("schedule_in"), std::string::npos);
    }
  }
  EXPECT_TRUE(saw_ctor_body);
  EXPECT_TRUE(saw_handler_body);
}

TEST(DeclParser, IncludeGraphCollectsQuotedIncludesOnly) {
  const DeclIndex idx = index_of(R"(
#include "simcore/simulation.hpp"
#include <vector>
#include "util/flat_map.hpp"
namespace cbs::core {}
)");
  std::vector<std::string> targets;
  for (const auto& edge : idx.includes()) targets.push_back(edge.target);
  EXPECT_EQ(targets,
            (std::vector<std::string>{"simcore/simulation.hpp",
                                      "util/flat_map.hpp"}));
}

TEST(DeclParser, DeletedAndDefaultedSpecialMembers) {
  const DeclIndex idx = index_of(R"(
namespace cbs::core {
class Fixed {
 public:
  Fixed() = default;
  Fixed(const Fixed&) = delete;
  Fixed& operator=(const Fixed&) = delete;
 private:
  int value_ = 0;
};
}  // namespace cbs::core
)");
  const ClassDecl& cls = get_class(idx, "cbs::core::Fixed");
  bool saw_deleted_copy = false;
  for (const MethodDecl& m : cls.methods) {
    if (m.name == "Fixed" && m.is_deleted) saw_deleted_copy = true;
    EXPECT_FALSE(m.has_body);
  }
  EXPECT_TRUE(saw_deleted_copy);
  ASSERT_NE(find_member(cls, "value_"), nullptr);
}

}  // namespace
