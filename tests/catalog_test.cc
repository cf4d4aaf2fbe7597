#include <gtest/gtest.h>

#include "catalog/catalog.h"
#include "tests/test_util.h"

namespace mood {
namespace {

using testing::TempDir;

class CatalogFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    MOOD_ASSERT_OK(storage_.Open(dir_.Path("db")));
    MOOD_ASSERT_OK(catalog_.Open(&storage_));
  }

  Catalog::ClassDef SimpleClass(const std::string& name,
                                std::vector<std::string> supers = {}) {
    Catalog::ClassDef def;
    def.name = name;
    def.supers = std::move(supers);
    def.attributes.push_back(
        {name + "_attr", TypeDesc::Basic(BasicType::kInteger)});
    return def;
  }

  TempDir dir_;
  StorageManager storage_;
  Catalog catalog_;
};

TEST_F(CatalogFixture, DefineAndLookup) {
  MOOD_ASSERT_OK_AND_ASSIGN(TypeId id, catalog_.Define(SimpleClass("Vehicle")));
  EXPECT_GE(id, kFirstUserTypeId);
  MOOD_ASSERT_OK_AND_ASSIGN(const MoodsType* t, catalog_.Lookup("Vehicle"));
  EXPECT_EQ(t->name, "Vehicle");
  EXPECT_TRUE(t->is_class);
  EXPECT_NE(t->extent_file, kInvalidFileId);
  MOOD_ASSERT_OK_AND_ASSIGN(const MoodsType* by_id, catalog_.Lookup(id));
  EXPECT_EQ(by_id, t);
  EXPECT_TRUE(catalog_.Lookup("Nope").status().IsNotFound());
}

TEST_F(CatalogFixture, TypeIdAndTypeNameKernelFunctions) {
  MOOD_ASSERT_OK_AND_ASSIGN(TypeId id, catalog_.Define(SimpleClass("Vehicle")));
  EXPECT_EQ(catalog_.typeId("Vehicle"), id);
  EXPECT_EQ(catalog_.typeName(id), "Vehicle");
  // Basic types have reserved ids.
  EXPECT_EQ(catalog_.typeId("Integer"), 1u);
  EXPECT_EQ(catalog_.typeName(1), "Integer");
  EXPECT_EQ(catalog_.typeName(6), "Boolean");
  EXPECT_EQ(catalog_.typeId("NoSuch"), kInvalidTypeId);
}

TEST_F(CatalogFixture, ValueTypesHaveNoExtent) {
  Catalog::ClassDef def = SimpleClass("Money");
  def.is_class = false;
  MOOD_ASSERT_OK(catalog_.Define(def).status());
  MOOD_ASSERT_OK_AND_ASSIGN(const MoodsType* t, catalog_.Lookup("Money"));
  EXPECT_FALSE(t->is_class);
  EXPECT_EQ(t->extent_file, kInvalidFileId);
  // Cannot inherit from a value type.
  EXPECT_FALSE(catalog_.Define(SimpleClass("Sub", {"Money"})).ok());
}

TEST_F(CatalogFixture, DuplicateDefinitionRejected) {
  MOOD_ASSERT_OK(catalog_.Define(SimpleClass("Vehicle")).status());
  EXPECT_TRUE(catalog_.Define(SimpleClass("Vehicle")).status().IsAlreadyExists());
}

TEST_F(CatalogFixture, InheritedAttributesSupersFirst) {
  MOOD_ASSERT_OK(catalog_.Define(SimpleClass("A")).status());
  MOOD_ASSERT_OK(catalog_.Define(SimpleClass("B", {"A"})).status());
  MOOD_ASSERT_OK(catalog_.Define(SimpleClass("C", {"B"})).status());
  MOOD_ASSERT_OK_AND_ASSIGN(auto attrs, catalog_.AllAttributes("C"));
  ASSERT_EQ(attrs.size(), 3u);
  EXPECT_EQ(attrs[0].name, "A_attr");
  EXPECT_EQ(attrs[1].name, "B_attr");
  EXPECT_EQ(attrs[2].name, "C_attr");
}

TEST_F(CatalogFixture, MultipleInheritance) {
  MOOD_ASSERT_OK(catalog_.Define(SimpleClass("Left")).status());
  MOOD_ASSERT_OK(catalog_.Define(SimpleClass("Right")).status());
  MOOD_ASSERT_OK(catalog_.Define(SimpleClass("Both", {"Left", "Right"})).status());
  MOOD_ASSERT_OK_AND_ASSIGN(auto attrs, catalog_.AllAttributes("Both"));
  EXPECT_EQ(attrs.size(), 3u);
  EXPECT_TRUE(catalog_.IsSubclassOf("Both", "Left"));
  EXPECT_TRUE(catalog_.IsSubclassOf("Both", "Right"));
  EXPECT_FALSE(catalog_.IsSubclassOf("Left", "Both"));
}

TEST_F(CatalogFixture, DiamondAttributeConflictRejected) {
  MOOD_ASSERT_OK(catalog_.Define(SimpleClass("Base")).status());
  MOOD_ASSERT_OK(catalog_.Define(SimpleClass("L", {"Base"})).status());
  MOOD_ASSERT_OK(catalog_.Define(SimpleClass("R", {"Base"})).status());
  // Base_attr would be inherited twice.
  auto res = catalog_.Define(SimpleClass("D", {"L", "R"}));
  EXPECT_FALSE(res.ok());
}

TEST_F(CatalogFixture, MethodResolutionIsBottomUp) {
  Catalog::ClassDef base = SimpleClass("Base");
  MoodsFunction f;
  f.name = "speak";
  f.return_type = TypeDesc::Basic(BasicType::kString);
  f.body_source = "base";
  base.methods.push_back(f);
  MOOD_ASSERT_OK(catalog_.Define(base).status());

  Catalog::ClassDef derived = SimpleClass("Derived", {"Base"});
  f.body_source = "derived";
  derived.methods.push_back(f);
  MOOD_ASSERT_OK(catalog_.Define(derived).status());

  MOOD_ASSERT_OK_AND_ASSIGN(auto from_derived, catalog_.ResolveFunction("Derived", "speak"));
  EXPECT_EQ(from_derived.first, "Derived");
  EXPECT_EQ(from_derived.second->body_source, "derived");
  MOOD_ASSERT_OK_AND_ASSIGN(auto from_base, catalog_.ResolveFunction("Base", "speak"));
  EXPECT_EQ(from_base.first, "Base");
  // An unrelated method is NotFound.
  EXPECT_TRUE(catalog_.ResolveFunction("Derived", "fly").status().IsNotFound());
}

TEST_F(CatalogFixture, SubtreeClassesAndSubclasses) {
  MOOD_ASSERT_OK(catalog_.Define(SimpleClass("Vehicle")).status());
  MOOD_ASSERT_OK(catalog_.Define(SimpleClass("Auto", {"Vehicle"})).status());
  MOOD_ASSERT_OK(catalog_.Define(SimpleClass("Japanese", {"Auto"})).status());
  MOOD_ASSERT_OK_AND_ASSIGN(auto subs, catalog_.Subclasses("Vehicle"));
  EXPECT_EQ(subs, std::vector<std::string>{"Auto"});
  MOOD_ASSERT_OK_AND_ASSIGN(auto tree, catalog_.SubtreeClasses("Vehicle"));
  EXPECT_EQ(tree.size(), 3u);
  EXPECT_EQ(tree[0], "Vehicle");
}

TEST_F(CatalogFixture, DropRules) {
  MOOD_ASSERT_OK(catalog_.Define(SimpleClass("A")).status());
  MOOD_ASSERT_OK(catalog_.Define(SimpleClass("B", {"A"})).status());
  // A has a subclass: refuse.
  EXPECT_FALSE(catalog_.Drop("A").ok());
  MOOD_ASSERT_OK(catalog_.Drop("B"));
  MOOD_ASSERT_OK(catalog_.Drop("A"));
  EXPECT_TRUE(catalog_.Lookup("A").status().IsNotFound());
}

TEST_F(CatalogFixture, DynamicSchemaChanges) {
  MOOD_ASSERT_OK(catalog_.Define(SimpleClass("C")).status());
  MOOD_ASSERT_OK(catalog_.AddAttribute("C", {"extra", TypeDesc::Basic(BasicType::kFloat)}));
  EXPECT_TRUE(catalog_
                  .AddAttribute("C", {"extra", TypeDesc::Basic(BasicType::kFloat)})
                  .IsAlreadyExists());
  MOOD_ASSERT_OK(catalog_.RenameAttribute("C", "extra", "renamed"));
  MOOD_ASSERT_OK_AND_ASSIGN(auto attrs, catalog_.AllAttributes("C"));
  EXPECT_EQ(attrs.back().name, "renamed");
  MOOD_ASSERT_OK(catalog_.DropAttribute("C", "renamed"));
  MOOD_ASSERT_OK_AND_ASSIGN(auto attrs2, catalog_.AllAttributes("C"));
  EXPECT_EQ(attrs2.size(), 1u);

  MoodsFunction fn;
  fn.name = "m";
  fn.return_type = TypeDesc::Basic(BasicType::kInteger);
  MOOD_ASSERT_OK(catalog_.AddFunction("C", fn));
  MOOD_ASSERT_OK(catalog_.UpdateFunctionBody("C", "m", "{ return 1; }"));
  MOOD_ASSERT_OK_AND_ASSIGN(const MoodsType* t, catalog_.Lookup("C"));
  EXPECT_EQ(t->FindFunction("m")->body_source, "{ return 1; }");
  MOOD_ASSERT_OK(catalog_.DropFunction("C", "m"));
  EXPECT_EQ(t->FindFunction("m"), nullptr);
}

TEST_F(CatalogFixture, IndexRegistry) {
  MOOD_ASSERT_OK(catalog_.Define(SimpleClass("C")).status());
  IndexDesc desc;
  desc.name = "idx1";
  desc.class_name = "C";
  desc.attribute = "C_attr";
  desc.kind = IndexKind::kBTree;
  desc.meta1 = 42;
  MOOD_ASSERT_OK(catalog_.RegisterIndex(desc));
  EXPECT_TRUE(catalog_.RegisterIndex(desc).IsAlreadyExists());
  auto found = catalog_.FindIndex("C", "C_attr", IndexKind::kBTree);
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(found->meta1, 42u);
  EXPECT_FALSE(catalog_.FindIndex("C", "C_attr", IndexKind::kHash).has_value());
  EXPECT_EQ(catalog_.IndexesOn("C").size(), 1u);
  MOOD_ASSERT_OK(catalog_.UnregisterIndex("idx1"));
  EXPECT_TRUE(catalog_.UnregisterIndex("idx1").IsNotFound());
}

TEST_F(CatalogFixture, NamedObjects) {
  Oid oid{3, 14, 15};
  MOOD_ASSERT_OK(catalog_.BindName("my_car", oid));
  MOOD_ASSERT_OK_AND_ASSIGN(Oid back, catalog_.LookupName("my_car"));
  EXPECT_EQ(back, oid);
  EXPECT_EQ(catalog_.AllNamedObjects().size(), 1u);
  MOOD_ASSERT_OK(catalog_.UnbindName("my_car"));
  EXPECT_TRUE(catalog_.LookupName("my_car").status().IsNotFound());
}

TEST_F(CatalogFixture, FunctionSignatureFormat) {
  MoodsFunction f;
  f.name = "scale";
  f.return_type = TypeDesc::Basic(BasicType::kInteger);
  f.params.push_back({"factor", TypeDesc::Basic(BasicType::kInteger)});
  f.params.push_back({"rate", TypeDesc::Basic(BasicType::kFloat)});
  EXPECT_EQ(f.Signature("Vehicle"), "Vehicle::scale(Integer,Float)");
}

TEST_F(CatalogFixture, PersistsEverythingAcrossReopen) {
  Catalog::ClassDef def = SimpleClass("Vehicle");
  MoodsFunction fn;
  fn.name = "go";
  fn.return_type = TypeDesc::Basic(BasicType::kBoolean);
  fn.params.push_back({"speed", TypeDesc::Basic(BasicType::kInteger)});
  fn.body_source = "{ return true; }";
  def.methods.push_back(fn);
  def.attributes.push_back({"refs", TypeDesc::Set(TypeDesc::Reference("Vehicle"))});
  MOOD_ASSERT_OK_AND_ASSIGN(TypeId id, catalog_.Define(def));
  MOOD_ASSERT_OK(catalog_.Define(SimpleClass("Auto", {"Vehicle"})).status());
  IndexDesc desc;
  desc.name = "byattr";
  desc.class_name = "Vehicle";
  desc.attribute = "Vehicle_attr";
  desc.meta1 = 9;
  MOOD_ASSERT_OK(catalog_.RegisterIndex(desc));
  MOOD_ASSERT_OK(catalog_.BindName("flagship", Oid{1, 2, 3}));

  MOOD_ASSERT_OK(storage_.Close());
  StorageManager storage2;
  MOOD_ASSERT_OK(storage2.Open(dir_.Path("db")));
  Catalog catalog2;
  MOOD_ASSERT_OK(catalog2.Open(&storage2));

  MOOD_ASSERT_OK_AND_ASSIGN(const MoodsType* t, catalog2.Lookup("Vehicle"));
  EXPECT_EQ(t->id, id);
  EXPECT_EQ(t->own_attributes.size(), 2u);
  EXPECT_TRUE(t->own_attributes[1].type->Equals(
      *TypeDesc::Set(TypeDesc::Reference("Vehicle"))));
  ASSERT_NE(t->FindFunction("go"), nullptr);
  EXPECT_EQ(t->FindFunction("go")->body_source, "{ return true; }");
  EXPECT_TRUE(catalog2.IsSubclassOf("Auto", "Vehicle"));
  EXPECT_TRUE(catalog2.FindIndex("Vehicle", "Vehicle_attr", IndexKind::kBTree).has_value());
  MOOD_ASSERT_OK_AND_ASSIGN(Oid flagship, catalog2.LookupName("flagship"));
  EXPECT_EQ(flagship, (Oid{1, 2, 3}));
  // New definitions continue from the persisted id space.
  MOOD_ASSERT_OK_AND_ASSIGN(TypeId id2, catalog2.Define(SimpleClass("Fresh")));
  EXPECT_GT(id2, id);
}

TEST_F(CatalogFixture, CatalogHoldingRemovedPathIndexFailsToOpen) {
  // Index kind 3 was the path index. It stays reserved: a catalog written
  // with one fails to open with an error that names the replacement.
  MOOD_ASSERT_OK(catalog_.Define(SimpleClass("C")).status());
  IndexDesc desc;
  desc.name = "old_path";
  desc.class_name = "C";
  desc.attribute = "C_attr.x";
  desc.kind = static_cast<IndexKind>(3);
  MOOD_ASSERT_OK(catalog_.RegisterIndex(desc));
  MOOD_ASSERT_OK(storage_.Close());

  StorageManager storage2;
  MOOD_ASSERT_OK(storage2.Open(dir_.Path("db")));
  Catalog catalog2;
  Status st = catalog2.Open(&storage2);
  ASSERT_TRUE(st.IsNotSupported()) << st.ToString();
  EXPECT_NE(st.ToString().find("old_path"), std::string::npos) << st.ToString();
  EXPECT_NE(st.ToString().find("CREATE MATERIALIZED VIEW"), std::string::npos)
      << st.ToString();
}

}  // namespace
}  // namespace mood
