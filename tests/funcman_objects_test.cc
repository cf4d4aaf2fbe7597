#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>

#include "common/random.h"
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
  MOOD_ASSERT_OK(objects_->ChaseRefs({car}, {"maker"}, SnapshotView{}, [&](size_t, Oid oid) {
    reached.push_back(oid);
    return Status::OK();
  }));
  ASSERT_EQ(reached.size(), 1u);
  EXPECT_EQ(reached[0], company);
  MOOD_ASSERT_OK_AND_ASSIGN(MoodValue name, objects_->GetAttribute(reached[0], "name"));
  EXPECT_EQ(name.AsString(), "BMW");
  // A non-reference step is a TypeError.
  EXPECT_TRUE(
      objects_
          ->ChaseRefs({car}, {"id"}, SnapshotView{}, [](size_t, Oid) { return Status::OK(); })
          .IsTypeError());
}

// --- In-place attribute reads ----------------------------------------------------

// The whole-object reading of attribute `attr`: Read, then the instance's own
// layout, with the default for a field the record predates.
Result<MoodValue> FieldViaRead(const ObjectManager& objects, Oid oid,
                               const std::string& attr, const SnapshotView& snap) {
  MOOD_ASSIGN_OR_RETURN(ObjectRecord record, objects.Read(oid, snap));
  MOOD_ASSIGN_OR_RETURN(AttributeLayoutPtr layout, objects.LayoutOf(record.type_id));
  MOOD_ASSIGN_OR_RETURN(size_t idx, layout->Ordinal(attr));
  if (idx >= record.tuple->size()) return layout->attrs[idx].type->DefaultValue();
  return record.tuple->elements()[idx];
}

// GetAttribute and GetAttributeByOrdinal (bound against `declared`, the
// class a reference to `oid` is typed with) must each return what
// FieldViaRead returns: the same value, or an error with the same code.
void ExpectInPlaceReadMatches(const ObjectManager& objects, Oid oid,
                              const std::string& declared, const std::string& attr,
                              const SnapshotView& snap = {}) {
  SCOPED_TRACE(declared + "." + attr + " of " + oid.ToString());
  Result<MoodValue> want = FieldViaRead(objects, oid, attr, snap);
  MOOD_ASSERT_OK_AND_ASSIGN(AttributeLayoutPtr layout, objects.LayoutOf(declared));
  MOOD_ASSERT_OK_AND_ASSIGN(size_t ordinal, layout->Ordinal(attr));
  Result<MoodValue> by_name = objects.GetAttribute(oid, attr, snap);
  Result<MoodValue> by_ordinal =
      objects.GetAttributeByOrdinal(oid, *layout, static_cast<uint32_t>(ordinal), snap);
  for (const Result<MoodValue>* got : {&by_name, &by_ordinal}) {
    ASSERT_EQ(got->ok(), want.ok()) << got->status().ToString();
    if (!want.ok()) {
      EXPECT_EQ(got->status().code(), want.status().code()) << got->status().ToString();
      continue;
    }
    EXPECT_EQ(got->value().kind(), want.value().kind());
    EXPECT_TRUE(got->value().Equals(want.value()))
        << got->value().ToString() << " vs " << want.value().ToString();
  }
}

TEST_F(KernelFixture, InPlaceReadOfSubclassInstanceBehindReference) {
  // A Hybrid lists Company's attribute first, so its inherited `weight` sits
  // at ordinal 2, not at Vehicle's ordinal 1: the read must re-resolve by name.
  Catalog::ClassDef hybrid;
  hybrid.name = "Hybrid";
  hybrid.supers = {"Company", "Vehicle"};
  MOOD_ASSERT_OK(catalog_.Define(hybrid).status());
  Catalog::ClassDef owner;
  owner.name = "Owner";
  owner.attributes.push_back({"vehicle", TypeDesc::Reference("Vehicle")});
  MOOD_ASSERT_OK(catalog_.Define(owner).status());

  MOOD_ASSERT_OK_AND_ASSIGN(
      Oid h, objects_->CreateObject("Hybrid", MoodValue::Tuple({MoodValue::String("Prius"),
                                                               MoodValue::Integer(4),
                                                               MoodValue::Integer(1300)})));
  MOOD_ASSERT_OK_AND_ASSIGN(
      Oid o, objects_->CreateObject("Owner", MoodValue::Tuple({MoodValue::Reference(h)})));
  MOOD_ASSERT_OK_AND_ASSIGN(MoodValue ref, objects_->GetAttribute(o, "vehicle"));
  ASSERT_EQ(ref.AsReference(), h);
  MOOD_ASSERT_OK_AND_ASSIGN(AttributeLayoutPtr vehicle, objects_->LayoutOf("Vehicle"));
  MOOD_ASSERT_OK_AND_ASSIGN(MoodValue w,
                            objects_->GetAttributeByOrdinal(h, *vehicle, 1, SnapshotView{}));
  EXPECT_EQ(w.AsInteger(), 1300);
  for (const char* attr : {"id", "weight"}) {
    ExpectInPlaceReadMatches(*objects_, h, "Vehicle", attr);
  }
  ExpectInPlaceReadMatches(*objects_, h, "Company", "name");
  ExpectInPlaceReadMatches(*objects_, o, "Owner", "vehicle");
  // A Car behind a Vehicle reference, and an attribute the instance lacks.
  MOOD_ASSERT_OK_AND_ASSIGN(
      Oid car, objects_->CreateObject(
                   "Car", MoodValue::Tuple({MoodValue::Integer(1), MoodValue::Integer(900),
                                            MoodValue::Reference(h)})));
  ExpectInPlaceReadMatches(*objects_, car, "Vehicle", "weight");
  ExpectInPlaceReadMatches(*objects_, car, "Car", "maker");
  EXPECT_TRUE(objects_->GetAttribute(h, "maker").status().IsNotFound());
}

TEST_F(KernelFixture, InPlaceReadOfObjectOlderThanAnAddedAttribute) {
  MOOD_ASSERT_OK_AND_ASSIGN(Oid old, NewVehicle(1, 100));
  MOOD_ASSERT_OK(catalog_.AddAttribute("Vehicle", {"color", TypeDesc::SizedString(16)}));
  MOOD_ASSERT_OK(
      catalog_.AddAttribute("Vehicle", {"tags", TypeDesc::Set(TypeDesc::SizedString(8))}));
  MOOD_ASSERT_OK_AND_ASSIGN(Oid fresh, NewVehicle(2, 200));
  for (Oid oid : {old, fresh}) {
    for (const char* attr : {"id", "weight", "color", "tags"}) {
      ExpectInPlaceReadMatches(*objects_, oid, "Vehicle", attr);
    }
  }
  MOOD_ASSERT_OK_AND_ASSIGN(MoodValue c, objects_->GetAttribute(old, "color"));
  EXPECT_EQ(c.AsString(), "");
}

TEST_F(KernelFixture, InPlaceReadFollowsAForwardedRecord) {
  Catalog::ClassDef note;
  note.name = "Note";
  note.attributes.push_back({"text", TypeDesc::Basic(BasicType::kString)});
  note.attributes.push_back({"rank", TypeDesc::Basic(BasicType::kInteger)});
  MOOD_ASSERT_OK(catalog_.Define(note).status());
  auto make = [&](std::string text, int32_t rank) {
    return objects_->CreateObject(
        "Note", MoodValue::Tuple({MoodValue::String(std::move(text)), MoodValue::Integer(rank)}));
  };
  MOOD_ASSERT_OK_AND_ASSIGN(Oid small, make("x", 1));
  MOOD_ASSERT_OK(make(std::string(3500, 'b'), 2).status());
  // The grown record no longer fits its home page: it moves behind a stub.
  MOOD_ASSERT_OK(objects_->SetAttribute(small, "text", MoodValue::String(std::string(1000, 'a'))));
  MOOD_ASSERT_OK_AND_ASSIGN(HeapFile * file, storage_.GetFile(small.file));
  const HeapFile::OpStats before = file->op_stats();
  MOOD_ASSERT_OK_AND_ASSIGN(MoodValue rank, objects_->GetAttribute(small, "rank"));
  EXPECT_EQ(rank.AsInteger(), 1);
  const HeapFile::OpStats after = file->op_stats();
  EXPECT_EQ(after.record_reads, before.record_reads + 1);
  EXPECT_EQ(after.forward_chases, before.forward_chases + 1);
  for (const char* attr : {"text", "rank"}) {
    ExpectInPlaceReadMatches(*objects_, small, "Note", attr);
  }
}

TEST_F(KernelFixture, InPlaceReadOfADeletedObjectIsNotFound) {
  MOOD_ASSERT_OK_AND_ASSIGN(Oid oid, NewVehicle(1, 100));
  MOOD_ASSERT_OK(objects_->DeleteObject(oid));
  EXPECT_TRUE(objects_->GetAttribute(oid, "weight").status().IsNotFound());
  ExpectInPlaceReadMatches(*objects_, oid, "Vehicle", "weight");
  EXPECT_TRUE(objects_->GetAttribute(Oid{}, "weight").status().IsInvalidArgument());
}

TEST_F(KernelFixture, SnapshotReadOverAPendingChainServesThePreImage) {
  MOOD_ASSERT_OK_AND_ASSIGN(Oid oid, NewVehicle(1, 1200));
  MOOD_ASSERT_OK_AND_ASSIGN(Oid untouched, NewVehicle(2, 700));
  // An open batch rewrites the object; a snapshot pinned now must still see
  // the pre-image, the heap already holds the new value.
  const uint64_t batch = versions_.BeginBatch();
  MOOD_ASSERT_OK(objects_->SetAttribute(oid, "weight", MoodValue::Integer(2000), nullptr, batch));
  PendingSlots pending{};
  const uint64_t csn = versions_.PinSnapshot(&pending);
  const SnapshotView snap{&versions_, csn};
  MOOD_ASSERT_OK_AND_ASSIGN(MoodValue w, objects_->GetAttribute(oid, "weight", snap));
  EXPECT_EQ(w.AsInteger(), 1200);
  MOOD_ASSERT_OK_AND_ASSIGN(MoodValue heap, objects_->GetAttribute(oid, "weight"));
  EXPECT_EQ(heap.AsInteger(), 2000);
  for (Oid o : {oid, untouched}) {
    ExpectInPlaceReadMatches(*objects_, o, "Vehicle", "weight", snap);
    ExpectInPlaceReadMatches(*objects_, o, "Vehicle", "weight");
  }
  versions_.UnpinSnapshot(csn);
  versions_.CommitBatch(batch);
}

// MoodValue::Skip must step over exactly the bytes Decode consumes, for
// every value kind, and reject every truncation without reading past it.
MoodValue AnyValue(Random* rng, int depth) {
  switch (rng->Uniform(depth > 0 ? 11 : 8)) {
    case 0: return MoodValue::Null();
    case 1: return MoodValue::Integer(static_cast<int32_t>(rng->Range(-1000, 1000)));
    case 2: return MoodValue::Float(rng->NextDouble() * 100);
    case 3: return MoodValue::LongInteger(rng->Range(-100000, 100000));
    case 4: return MoodValue::String(std::string(rng->Uniform(20), 's'));
    case 5: return MoodValue::Char(static_cast<char>('a' + rng->Uniform(26)));
    case 6: return MoodValue::Boolean(rng->OneIn(2));
    case 7: {
      Oid o;
      o.file = static_cast<uint16_t>(rng->Uniform(100));
      o.page = static_cast<uint32_t>(rng->Uniform(10000));
      o.slot = static_cast<uint16_t>(rng->Uniform(100));
      return MoodValue::Reference(o);
    }
    default: {
      MoodValue::ValueList elems;
      const size_t n = rng->Uniform(5);
      for (size_t i = 0; i < n; i++) elems.push_back(AnyValue(rng, depth - 1));
      switch (rng->Uniform(3)) {
        case 0: return MoodValue::Tuple(std::move(elems));
        case 1: return MoodValue::Set(std::move(elems));
        default: return MoodValue::List(std::move(elems));
      }
    }
  }
}

TEST(ValueSkipTest, SkipConsumesWhatDecodeConsumes) {
  Random rng(20240611);
  for (int i = 0; i < 300; i++) {
    MoodValue v = AnyValue(&rng, 3);
    std::string buf;
    v.EncodeTo(&buf);
    buf += "tail";  // a following value: neither may read into it
    Slice decoded(buf), skipped(buf);
    MOOD_ASSERT_OK(MoodValue::Decode(&decoded).status());
    MOOD_ASSERT_OK(MoodValue::Skip(&skipped));
    EXPECT_EQ(skipped.size(), decoded.size()) << v.ToString();
    EXPECT_EQ(skipped.view(), "tail");
    // Every proper prefix is truncated. Each is copied into a buffer of
    // exactly its length, so a read past it is an out-of-bounds access the
    // address sanitizer reports.
    const size_t len = buf.size() - 4;
    for (size_t cut = 0; cut < len; cut++) {
      std::unique_ptr<char[]> prefix(new char[cut == 0 ? 1 : cut]);
      std::memcpy(prefix.get(), buf.data(), cut);
      Slice in(prefix.get(), cut);
      Status st = MoodValue::Skip(&in);
      EXPECT_TRUE(st.IsCorruption()) << v.ToString() << " cut at " << cut << ": "
                                     << st.ToString();
    }
  }
  Slice bad("\x7f");
  EXPECT_TRUE(MoodValue::Skip(&bad).IsCorruption());
  // A count no encoding of this length can hold is rejected up front, not
  // trusted to size an allocation.
  const std::string huge("\x07\xff\xff\xff\xff\x00", 6);
  Slice for_skip(huge), for_decode(huge);
  EXPECT_TRUE(MoodValue::Skip(&for_skip).IsCorruption());
  EXPECT_TRUE(MoodValue::Decode(&for_decode).status().IsCorruption());
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
