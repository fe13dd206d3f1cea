#include <chrono>
#include <thread>
namespace pcdb {
void FrontEnd::RunLoop() {
  while (true) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    Refresh();
  }
}
void FrontEnd::Refresh() {
  TcpConnect("upstream", 9000);
  handler_->Query(request, token, 0);
}
void FrontEnd::OffLoop() {
  std::this_thread::sleep_for(std::chrono::seconds(1));
}
}  // namespace pcdb
