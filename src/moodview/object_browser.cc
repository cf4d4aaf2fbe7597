#include "moodview/object_browser.h"

#include <algorithm>

namespace mood {

Result<std::string> ObjectBrowser::RenderObject(Oid oid, int depth, int indent,
                                                std::vector<Oid>* trail) const {
  std::string pad(static_cast<size_t>(indent) * 2, ' ');
  if (std::find(trail->begin(), trail->end(), oid) != trail->end()) {
    return pad + "<cycle to " + oid.ToString() + ">\n";
  }
  MOOD_ASSIGN_OR_RETURN(ObjectRecord record, objects_->Read(oid));
  MOOD_ASSIGN_OR_RETURN(AttributeLayoutPtr layout, objects_->LayoutOf(record.type_id));
  const MoodValue& tuple = *record.tuple;
  const auto& attrs = layout->attrs;
  std::string out = pad + layout->class_name + " " + oid.ToString() + "\n";
  trail->push_back(oid);
  for (size_t i = 0; i < attrs.size(); i++) {
    MoodValue v = i < tuple.size() ? tuple.elements()[i] : attrs[i].type->DefaultValue();
    out += pad + "  " + attrs[i].name + ": ";
    if (v.kind() == ValueKind::kReference && depth > 0 && v.AsReference().valid()) {
      out += "\n";
      MOOD_ASSIGN_OR_RETURN(std::string nested,
                            RenderObject(v.AsReference(), depth - 1, indent + 2, trail));
      out += nested;
    } else if (v.IsCollection() && depth > 0) {
      out += "\n";
      MOOD_ASSIGN_OR_RETURN(std::string nested, RenderValue(v, depth, indent + 2, trail));
      out += nested;
    } else {
      out += v.ToString() + "\n";
    }
  }
  trail->pop_back();
  return out;
}

Result<std::string> ObjectBrowser::RenderValue(const MoodValue& v, int depth,
                                               int indent,
                                               std::vector<Oid>* trail) const {
  std::string pad(static_cast<size_t>(indent) * 2, ' ');
  std::string out;
  for (const auto& e : v.elements()) {
    if (e.kind() == ValueKind::kReference && depth > 0 && e.AsReference().valid()) {
      MOOD_ASSIGN_OR_RETURN(std::string nested,
                            RenderObject(e.AsReference(), depth - 1, indent, trail));
      out += nested;
    } else {
      out += pad + "- " + e.ToString() + "\n";
    }
  }
  if (v.elements().empty()) out += pad + "(empty)\n";
  return out;
}

Result<std::string> ObjectBrowser::Render(Oid oid, int depth) const {
  std::vector<Oid> trail;
  return RenderObject(oid, depth, 0, &trail);
}

Result<std::string> ObjectBrowser::RenderExtent(const std::string& class_name,
                                                int depth, size_t limit) const {
  std::string out = "=== Extent of " + class_name + " ===\n";
  size_t count = 0;
  size_t total = 0;
  MOOD_RETURN_IF_ERROR(objects_->ScanExtent(
      class_name, false, {}, [&](Oid oid, const MoodValue&) -> Status {
        total++;
        if (count >= limit) return Status::OK();
        count++;
        std::vector<Oid> trail;
        MOOD_ASSIGN_OR_RETURN(std::string rendered, RenderObject(oid, depth, 0, &trail));
        out += rendered;
        return Status::OK();
      }));
  if (total > count) {
    out += "... (" + std::to_string(total - count) + " more objects)\n";
  }
  return out;
}

}  // namespace mood
