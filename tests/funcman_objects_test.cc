#include <gtest/gtest.h>

#include "funcman/function_manager.h"
#include "index/key_codec.h"
#include "objects/object_manager.h"
#include "tests/test_util.h"
#include "txn/version_store.h"

namespace mood {
namespace {

using testing::TempDir;

class KernelFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    MOOD_ASSERT_OK(storage_.Open(dir_.Path("db")));
    MOOD_ASSERT_OK(catalog_.Open(&storage_));
    objects_ = std::make_unique<ObjectManager>(&storage_, &catalog_, &versions_);
    funcman_ = std::make_unique<FunctionManager>(&catalog_);

    Catalog::ClassDef vehicle;
    vehicle.name = "Vehicle";
    vehicle.attributes.push_back({"id", TypeDesc::Basic(BasicType::kInteger)});
    vehicle.attributes.push_back({"weight", TypeDesc::Basic(BasicType::kInteger)});
    MOOD_ASSERT_OK(catalog_.Define(vehicle).status());

    Catalog::ClassDef company;
    company.name = "Company";
    company.attributes.push_back({"name", TypeDesc::SizedString(32)});
    MOOD_ASSERT_OK(catalog_.Define(company).status());

    Catalog::ClassDef car;
    car.name = "Car";
    car.supers = {"Vehicle"};
    car.attributes.push_back({"maker", TypeDesc::Reference("Company")});
    MOOD_ASSERT_OK(catalog_.Define(car).status());
  }

  Result<Oid> NewVehicle(int32_t id, int32_t weight) {
    return objects_->CreateObject(
        "Vehicle", MoodValue::Tuple({MoodValue::Integer(id), MoodValue::Integer(weight)}));
  }

  TempDir dir_;
  StorageManager storage_;
  Catalog catalog_;
  VersionStore versions_;
  std::unique_ptr<ObjectManager> objects_;
  std::unique_ptr<FunctionManager> funcman_;
};

TEST_F(KernelFixture, CreateFetchUpdateDelete) {
  MOOD_ASSERT_OK_AND_ASSIGN(Oid oid, NewVehicle(1, 1200));
  MOOD_ASSERT_OK_AND_ASSIGN(MoodValue v, objects_->Fetch(oid));
  EXPECT_EQ(v.elements()[0].AsInteger(), 1);
  MOOD_ASSERT_OK_AND_ASSIGN(std::string cls, objects_->ClassOf(oid));
  EXPECT_EQ(cls, "Vehicle");
  MOOD_ASSERT_OK(objects_->SetAttribute(oid, "weight", MoodValue::Integer(1500)));
  MOOD_ASSERT_OK_AND_ASSIGN(MoodValue w, objects_->GetAttribute(oid, "weight"));
  EXPECT_EQ(w.AsInteger(), 1500);
  MOOD_ASSERT_OK(objects_->DeleteObject(oid));
  EXPECT_FALSE(objects_->Fetch(oid).ok());
}

TEST_F(KernelFixture, TypeCheckingOnCreate) {
  // Wrong type for weight.
  auto bad = objects_->CreateObject(
      "Vehicle", MoodValue::Tuple({MoodValue::Integer(1), MoodValue::String("x")}));
  EXPECT_TRUE(bad.status().IsTypeError());
  // Too many fields.
  auto too_many = objects_->CreateObject(
      "Vehicle", MoodValue::Tuple({MoodValue::Integer(1), MoodValue::Integer(2),
                                   MoodValue::Integer(3)}));
  EXPECT_FALSE(too_many.ok());
}

TEST_F(KernelFixture, ShortTuplePaddedWithDefaults) {
  MOOD_ASSERT_OK_AND_ASSIGN(
      Oid oid, objects_->CreateObject("Vehicle",
                                      MoodValue::Tuple({MoodValue::Integer(7)})));
  MOOD_ASSERT_OK_AND_ASSIGN(MoodValue w, objects_->GetAttribute(oid, "weight"));
  EXPECT_EQ(w.AsInteger(), 0);
}

TEST_F(KernelFixture, SchemaEvolutionOldObjectsStillReadable) {
  MOOD_ASSERT_OK_AND_ASSIGN(Oid oid, NewVehicle(1, 100));
  MOOD_ASSERT_OK(
      catalog_.AddAttribute("Vehicle", {"color", TypeDesc::SizedString(16)}));
  // Old object: new attribute reads as default.
  MOOD_ASSERT_OK_AND_ASSIGN(MoodValue c, objects_->GetAttribute(oid, "color"));
  EXPECT_EQ(c.AsString(), "");
  // Update writes the padded shape.
  MOOD_ASSERT_OK(objects_->SetAttribute(oid, "color", MoodValue::String("red")));
  MOOD_ASSERT_OK_AND_ASSIGN(MoodValue c2, objects_->GetAttribute(oid, "color"));
  EXPECT_EQ(c2.AsString(), "red");
}

TEST_F(KernelFixture, SubclassInstancesInheritedAttributes) {
  MOOD_ASSERT_OK_AND_ASSIGN(
      Oid company, objects_->CreateObject(
                       "Company", MoodValue::Tuple({MoodValue::String("BMW")})));
  MOOD_ASSERT_OK_AND_ASSIGN(
      Oid car, objects_->CreateObject(
                   "Car", MoodValue::Tuple({MoodValue::Integer(1), MoodValue::Integer(900),
                                            MoodValue::Reference(company)})));
  MOOD_ASSERT_OK_AND_ASSIGN(MoodValue w, objects_->GetAttribute(car, "weight"));
  EXPECT_EQ(w.AsInteger(), 900);
  MOOD_ASSERT_OK_AND_ASSIGN(MoodValue m, objects_->GetAttribute(car, "maker"));
  EXPECT_EQ(m.AsReference(), company);
}

TEST_F(KernelFixture, ExtentScansWithSubclassesAndExclusion) {
  MOOD_ASSERT_OK(NewVehicle(1, 100).status());
  MOOD_ASSERT_OK(NewVehicle(2, 200).status());
  MOOD_ASSERT_OK_AND_ASSIGN(
      Oid company, objects_->CreateObject(
                       "Company", MoodValue::Tuple({MoodValue::String("X")})));
  MOOD_ASSERT_OK(objects_
                     ->CreateObject("Car", MoodValue::Tuple({MoodValue::Integer(3),
                                                             MoodValue::Integer(300),
                                                             MoodValue::Reference(company)}))
                     .status());
  MOOD_ASSERT_OK_AND_ASSIGN(uint64_t own, objects_->ExtentCount("Vehicle", false));
  EXPECT_EQ(own, 2u);
  MOOD_ASSERT_OK_AND_ASSIGN(uint64_t all, objects_->ExtentCount("Vehicle", true));
  EXPECT_EQ(all, 3u);
  // EVERY Vehicle - Car.
  size_t count = 0;
  MOOD_ASSERT_OK(objects_->ScanExtent("Vehicle", true, {"Car"},
                                      [&](Oid, const MoodValue&) {
                                        count++;
                                        return Status::OK();
                                      }));
  EXPECT_EQ(count, 2u);
}

TEST_F(KernelFixture, DeepEqualsFollowsReferences) {
  MOOD_ASSERT_OK_AND_ASSIGN(
      Oid c1, objects_->CreateObject("Company",
                                     MoodValue::Tuple({MoodValue::String("Acme")})));
  MOOD_ASSERT_OK_AND_ASSIGN(
      Oid c2, objects_->CreateObject("Company",
                                     MoodValue::Tuple({MoodValue::String("Acme")})));
  MOOD_ASSERT_OK_AND_ASSIGN(
      Oid c3, objects_->CreateObject("Company",
                                     MoodValue::Tuple({MoodValue::String("Other")})));
  // Different oids, deep-equal values.
  MOOD_ASSERT_OK_AND_ASSIGN(
      bool eq, objects_->DeepEquals(MoodValue::Reference(c1), MoodValue::Reference(c2)));
  EXPECT_TRUE(eq);
  MOOD_ASSERT_OK_AND_ASSIGN(
      bool ne, objects_->DeepEquals(MoodValue::Reference(c1), MoodValue::Reference(c3)));
  EXPECT_FALSE(ne);
}

TEST_F(KernelFixture, AttributeIndexMaintainedAcrossDml) {
  MOOD_ASSERT_OK(objects_->CreateAttributeIndex("v_by_weight", "Vehicle", "weight",
                                                IndexKind::kBTree));
  MOOD_ASSERT_OK_AND_ASSIGN(Oid a, NewVehicle(1, 100));
  MOOD_ASSERT_OK_AND_ASSIGN(Oid b, NewVehicle(2, 200));
  (void)b;
  auto desc = catalog_.FindIndex("Vehicle", "weight", IndexKind::kBTree);
  ASSERT_TRUE(desc.has_value());
  MOOD_ASSERT_OK_AND_ASSIGN(BPlusTree * tree, objects_->OpenBTree(*desc));
  auto find = [&](int32_t w) {
    auto r = tree->SearchEqual(MakeIndexKey(MoodValue::Integer(w)));
    return r.ok() ? r.value().size() : size_t(999);
  };
  EXPECT_EQ(find(100), 1u);
  EXPECT_EQ(find(200), 1u);
  MOOD_ASSERT_OK(objects_->SetAttribute(a, "weight", MoodValue::Integer(150)));
  EXPECT_EQ(find(100), 0u);
  EXPECT_EQ(find(150), 1u);
  MOOD_ASSERT_OK(objects_->DeleteObject(a));
  EXPECT_EQ(find(150), 0u);
}

TEST_F(KernelFixture, BulkLoadedIndexSeesExistingObjects) {
  for (int i = 0; i < 20; i++) MOOD_ASSERT_OK(NewVehicle(i, i * 10).status());
  MOOD_ASSERT_OK(objects_->CreateAttributeIndex("v_by_id", "Vehicle", "id",
                                                IndexKind::kHash));
  auto desc = catalog_.FindIndex("Vehicle", "id", IndexKind::kHash);
  ASSERT_TRUE(desc.has_value());
  MOOD_ASSERT_OK_AND_ASSIGN(HashIndex * idx, objects_->OpenHash(*desc));
  MOOD_ASSERT_OK_AND_ASSIGN(auto hits, idx->SearchEqual(MakeIndexKey(MoodValue::Integer(7))));
  EXPECT_EQ(hits.size(), 1u);
}

TEST_F(KernelFixture, ReferenceChaseReachesTargets) {
  // Car -> Company references; chase car.maker, then read the company's name.
  MOOD_ASSERT_OK_AND_ASSIGN(
      Oid company, objects_->CreateObject(
                       "Company", MoodValue::Tuple({MoodValue::String("BMW")})));
  MOOD_ASSERT_OK_AND_ASSIGN(
      Oid car, objects_->CreateObject(
                   "Car", MoodValue::Tuple({MoodValue::Integer(1), MoodValue::Integer(900),
                                            MoodValue::Reference(company)})));
  std::vector<Oid> reached;
  MOOD_ASSERT_OK(objects_->ChaseRefs(car, {"maker"}, nullptr, [&](Oid oid) {
    reached.push_back(oid);
    return Status::OK();
  }));
  ASSERT_EQ(reached.size(), 1u);
  EXPECT_EQ(reached[0], company);
  MOOD_ASSERT_OK_AND_ASSIGN(MoodValue name, objects_->GetAttribute(reached[0], "name"));
  EXPECT_EQ(name.AsString(), "BMW");
  // A non-reference step is a TypeError.
  EXPECT_TRUE(objects_->ChaseRefs(car, {"id"}, nullptr, [](Oid) { return Status::OK(); })
                  .IsTypeError());
}

// --- Function Manager -------------------------------------------------------------

TEST_F(KernelFixture, RegisterAndInvokeCompiledMethod) {
  MoodsFunction decl;
  decl.name = "lbweight";
  decl.return_type = TypeDesc::Basic(BasicType::kInteger);
  MOOD_ASSERT_OK(funcman_->Register(
      "Vehicle", decl,
      [](const MethodContext& ctx, const std::vector<MoodValue>&) -> Result<MoodValue> {
        MOOD_ASSIGN_OR_RETURN(MoodValue w, ctx.Attr("weight"));
        return MoodValue::Integer(static_cast<int32_t>(w.AsInteger() * 2.2075));
      }));
  MOOD_ASSERT_OK_AND_ASSIGN(Oid oid, NewVehicle(1, 1000));
  MOOD_ASSERT_OK_AND_ASSIGN(MoodValue self, objects_->Fetch(oid));
  std::vector<std::string> attr_names = {"id", "weight"};
  MethodContext ctx;
  ctx.self = oid;
  ctx.self_value = &self;
  ctx.attr_names = &attr_names;
  MOOD_ASSERT_OK_AND_ASSIGN(MoodValue out,
                            funcman_->Invoke("Vehicle", "lbweight", ctx, {}));
  EXPECT_EQ(out.AsInteger(), 2207);
  EXPECT_EQ(funcman_->stats().cold_loads, 1u);
  MOOD_ASSERT_OK(funcman_->Invoke("Vehicle", "lbweight", ctx, {}).status());
  EXPECT_EQ(funcman_->stats().warm_calls, 1u);
  funcman_->UnloadAll();
  MOOD_ASSERT_OK(funcman_->Invoke("Vehicle", "lbweight", ctx, {}).status());
  EXPECT_EQ(funcman_->stats().cold_loads, 2u);
}

TEST_F(KernelFixture, LateBindingThroughSubclass) {
  MoodsFunction decl;
  decl.name = "describe";
  decl.return_type = TypeDesc::Basic(BasicType::kString);
  MOOD_ASSERT_OK(funcman_->Register(
      "Vehicle", decl,
      [](const MethodContext&, const std::vector<MoodValue>&) {
        return Result<MoodValue>(MoodValue::String("vehicle"));
      }));
  // Invoke on the subclass: resolves to the Vehicle body.
  MethodContext ctx;
  MOOD_ASSERT_OK_AND_ASSIGN(MoodValue out, funcman_->Invoke("Car", "describe", ctx, {}));
  EXPECT_EQ(out.AsString(), "vehicle");
  // Override on Car and re-invoke: the subclass body wins (late binding).
  MOOD_ASSERT_OK(funcman_->Register(
      "Car", decl,
      [](const MethodContext&, const std::vector<MoodValue>&) {
        return Result<MoodValue>(MoodValue::String("car"));
      }));
  MOOD_ASSERT_OK_AND_ASSIGN(MoodValue out2, funcman_->Invoke("Car", "describe", ctx, {}));
  EXPECT_EQ(out2.AsString(), "car");
}

TEST_F(KernelFixture, ArgumentTypeCheckingAtRunTime) {
  MoodsFunction decl;
  decl.name = "scale";
  decl.return_type = TypeDesc::Basic(BasicType::kInteger);
  decl.params.push_back({"factor", TypeDesc::Basic(BasicType::kInteger)});
  MOOD_ASSERT_OK(funcman_->Register(
      "Vehicle", decl,
      [](const MethodContext&, const std::vector<MoodValue>& args) {
        return Result<MoodValue>(MoodValue::Integer(args[0].AsInteger() * 2));
      }));
  MethodContext ctx;
  // Wrong arity.
  auto r1 = funcman_->Invoke("Vehicle", "scale", ctx, {});
  EXPECT_EQ(r1.status().code(), StatusCode::kFunctionError);
  // Wrong type.
  auto r2 = funcman_->Invoke("Vehicle", "scale", ctx, {MoodValue::String("x")});
  EXPECT_EQ(r2.status().code(), StatusCode::kFunctionError);
  // Correct.
  MOOD_ASSERT_OK_AND_ASSIGN(MoodValue out,
                            funcman_->Invoke("Vehicle", "scale", ctx, {MoodValue::Integer(21)}));
  EXPECT_EQ(out.AsInteger(), 42);
}

TEST_F(KernelFixture, CompiledErrorsSurfaceAsInterpreterErrors) {
  MoodsFunction decl;
  decl.name = "explode";
  decl.return_type = TypeDesc::Basic(BasicType::kInteger);
  MOOD_ASSERT_OK(funcman_->Register(
      "Vehicle", decl,
      [](const MethodContext&, const std::vector<MoodValue>&) -> Result<MoodValue> {
        return Status::Internal("segfault-equivalent caught by Exception class");
      }));
  MethodContext ctx;
  auto r = funcman_->Invoke("Vehicle", "explode", ctx, {});
  EXPECT_EQ(r.status().code(), StatusCode::kFunctionError);
  EXPECT_NE(r.status().message().find("Vehicle::explode"), std::string::npos);
}

TEST_F(KernelFixture, IllTypedReturnRejected) {
  MoodsFunction decl;
  decl.name = "liar";
  decl.return_type = TypeDesc::Basic(BasicType::kInteger);
  MOOD_ASSERT_OK(funcman_->Register(
      "Vehicle", decl,
      [](const MethodContext&, const std::vector<MoodValue>&) {
        return Result<MoodValue>(MoodValue::String("not an int"));
      }));
  MethodContext ctx;
  EXPECT_EQ(funcman_->Invoke("Vehicle", "liar", ctx, {}).status().code(),
            StatusCode::kFunctionError);
}

TEST_F(KernelFixture, UpdateAndRemoveFunction) {
  MoodsFunction decl;
  decl.name = "ver";
  decl.return_type = TypeDesc::Basic(BasicType::kInteger);
  MOOD_ASSERT_OK(funcman_->Register(
      "Vehicle", decl, [](const MethodContext&, const std::vector<MoodValue>&) {
        return Result<MoodValue>(MoodValue::Integer(1));
      }));
  MethodContext ctx;
  MOOD_ASSERT_OK_AND_ASSIGN(MoodValue v1, funcman_->Invoke("Vehicle", "ver", ctx, {}));
  EXPECT_EQ(v1.AsInteger(), 1);
  // "The shared library of the class will be unavailable only during the time it
  // takes to write the new function": Update replaces the loaded body.
  MOOD_ASSERT_OK(funcman_->Update(
      "Vehicle", "ver", [](const MethodContext&, const std::vector<MoodValue>&) {
        return Result<MoodValue>(MoodValue::Integer(2));
      }));
  MOOD_ASSERT_OK_AND_ASSIGN(MoodValue v2, funcman_->Invoke("Vehicle", "ver", ctx, {}));
  EXPECT_EQ(v2.AsInteger(), 2);
  MOOD_ASSERT_OK(funcman_->Remove("Vehicle", "ver"));
  EXPECT_EQ(funcman_->Invoke("Vehicle", "ver", ctx, {}).status().code(),
            StatusCode::kFunctionError);
}

}  // namespace
}  // namespace mood
